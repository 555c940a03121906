package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dew/bench/span"
)

// tools are the commands the workloads run, built from ./cmd at set-up.
var tools = []string{"tracegen", "explore", "dewsim", "refsim", "experiments"}

// bench runs workloads in one checkout.
type bench struct {
	root string // repository root
	bin  string // built tools
	work string // this invocation's working directory, removed at exit
	seed uint64
	// quick shrinks every input to 20k accesses and every loop to one
	// run: a smoke test, not a measurement.
	quick   bool
	env     []string
	log     io.Writer
	digests map[string]string
	spans   []tracedSpan
	// tracerBuilt is set once the traced-run command is built, on the
	// first traced run.
	tracerBuilt bool
}

// tracedSpan is a span as the -spans file records it.
type tracedSpan struct {
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	span.Span
}

// plan says how much of a workload to run.
type plan struct {
	setupReps int
	runs      budget // timed tool runs
	traced    budget // traced runs; zero means none
}

// budget repeats a step until d has passed and at least min steps ran.
type budget struct {
	d   time.Duration
	min int
}

func (b budget) more(start time.Time, done int) bool {
	return done < b.min || time.Since(start) < b.d
}

// result is one workload's outcome.
type result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// OracleHash digests the warm-up run's normalized output; every
	// later run must reproduce it.
	OracleHash string   `json:"oracle_hash"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Errors     []string `json:"errors,omitempty"`
	// E2E and Layers hold every sample of every metric: one per timed
	// run (setup_s: one per set-up repetition) and one per traced run.
	E2E    map[string][]float64 `json:"e2e"`
	Layers map[string][]float64 `json:"layers,omitempty"`
}

// check counts one checked operation, failed when err is non-nil.
func (r *result) check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) errorRate() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// proc is one finished process.
type proc struct {
	wall, cpu time.Duration
	rssMiB    float64
	out       []byte
}

// run starts a built binary, waits for it and measures it. Children never
// see DEW_CACHE, so a cold run is cold.
func (b *bench) run(ctx context.Context, name string, args ...string) (proc, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(b.bin, name), args...)
	cmd.Env = b.env
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return proc{}, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	st := cmd.ProcessState
	ru, _ := st.SysUsage().(*syscall.Rusage)
	p := proc{wall: wall, cpu: st.UserTime() + st.SystemTime(), out: stdout.Bytes()}
	if ru != nil {
		p.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return p, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// goBuild compiles packages of the module in dir into the bin directory.
func (b *bench) goBuild(ctx context.Context, dir, out string, pkgs ...string) error {
	cmd := exec.CommandContext(ctx, "go", append([]string{"build", "-o", out}, pkgs...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stderr, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", strings.Join(pkgs, " "), err, stderr.String())
	}
	return nil
}

// buildTools builds the simulator's tools from the checkout's source.
func (b *bench) buildTools(ctx context.Context) error {
	pkgs := make([]string, len(tools))
	for i, t := range tools {
		pkgs[i] = "./cmd/" + t
	}
	return b.goBuild(ctx, b.root, b.bin+string(filepath.Separator), pkgs...)
}

// workloadRun is the state of one workload while it runs.
type workloadRun struct {
	w     workload
	dir   string
	trace string // the generated trace file; "" for the sweeps
	cache string // the populated cache of a warmCache workload
	res   *result
	n     int // names fresh cache directories
}

// args returns the tool flags of the next run, with an empty cache
// directory when the workload runs cold.
func (r *workloadRun) args(b *bench) []string {
	dir := r.cache
	if r.w.cache == freshCache {
		r.n++
		dir = filepath.Join(r.dir, "cache-"+strconv.Itoa(r.n))
	}
	return r.w.expand(r.trace, dir, b.seed, b.quick)
}

// cleanup removes the cold runs' cache directories.
func (r *workloadRun) cleanup() error {
	if r.w.cache != freshCache {
		return nil
	}
	return os.RemoveAll(filepath.Join(r.dir, "cache-"+strconv.Itoa(r.n)))
}

// checkOutput compares one run's output with the warm-up's.
func (r *workloadRun) checkOutput(out []byte) error {
	if h := digest(normalize(r.w.tool, out)); h != r.res.OracleHash {
		return fmt.Errorf("%s: output digest %s differs from the warm-up's %s", r.w.name, h[:12], r.res.OracleHash[:12])
	}
	return nil
}

// runWorkload sets the workload up, checks its warm-up output against
// the oracle, then times tool runs and, when planned, traced runs.
// Errors returned are failures of the harness or of set-up; a wrong or
// failed measured run is counted in the result instead.
func (b *bench) runWorkload(ctx context.Context, w workload, p plan) (*result, error) {
	r := &workloadRun{w: w, dir: filepath.Join(b.work, w.name),
		res: &result{Workload: w.name, Seed: b.seed, E2E: map[string][]float64{}}}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	res := r.res
	fmt.Fprintf(b.log, "%s: set-up\n", w.name)
	warm, err := b.setUp(ctx, r, p.setupReps)
	if err != nil {
		return nil, err
	}
	// Write the set-up's dirty pages back now rather than during the
	// timed runs.
	syscall.Sync()
	b.oracle(ctx, r, warm)
	if want, ok := b.digests[w.name]; ok && b.seed == 1 && !b.quick {
		var err error
		if want != res.OracleHash {
			err = fmt.Errorf("%s: seed-1 output digest %s, committed digest %s", w.name, res.OracleHash, want)
		}
		res.check(err)
	}

	fmt.Fprintf(b.log, "%s: timed runs\n", w.name)
	for start, n := time.Now(), 0; p.runs.more(start, n) && ctx.Err() == nil; n++ {
		ran, err := b.run(ctx, w.tool, r.args(b)...)
		if err == nil {
			err = r.checkOutput(ran.out)
		}
		res.check(err)
		if err == nil {
			res.E2E["wall_s"] = append(res.E2E["wall_s"], ran.wall.Seconds())
			res.E2E["cpu_s"] = append(res.E2E["cpu_s"], ran.cpu.Seconds())
			res.E2E["peak_rss_mb"] = append(res.E2E["peak_rss_mb"], ran.rssMiB)
		}
		if err := r.cleanup(); err != nil {
			return nil, err
		}
	}

	if p.traced.min > 0 {
		fmt.Fprintf(b.log, "%s: traced runs\n", w.name)
		if err := b.traced(ctx, r, p.traced); err != nil {
			return nil, err
		}
	}
	return res, ctx.Err()
}

// setUp prepares the workload's inputs and runs the untimed warm-up,
// reps times; each repetition is one setup_s sample. For sweep-warm
// the inputs are a cache populated by a cold run, whose output must
// already match the warm runs'. Returns the warm-up output.
func (b *bench) setUp(ctx context.Context, r *workloadRun, reps int) ([]byte, error) {
	w, res := r.w, r.res
	var warm []byte
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		if w.input != nil {
			n := w.input.n
			if b.quick {
				n = w.input.quickN
			}
			r.trace = filepath.Join(r.dir, w.input.file)
			if _, err := b.run(ctx, "tracegen", "-app", w.input.app, "-n", strconv.FormatUint(n, 10),
				"-seed", strconv.FormatUint(b.seed, 10), "-o", r.trace); err != nil {
				return nil, err
			}
		}
		var populated []byte
		if w.cache == warmCache {
			r.cache = filepath.Join(r.dir, "cache")
			if err := os.RemoveAll(r.cache); err != nil {
				return nil, err
			}
			ran, err := b.run(ctx, w.tool, r.args(b)...)
			if err != nil {
				return nil, err
			}
			populated = ran.out
		}
		ran, err := b.run(ctx, w.tool, r.args(b)...)
		if err != nil {
			return nil, err
		}
		if err := r.cleanup(); err != nil {
			return nil, err
		}
		res.E2E["setup_s"] = append(res.E2E["setup_s"], time.Since(start).Seconds())

		if rep == 0 {
			warm = ran.out
			res.OracleHash = digest(normalize(w.tool, warm))
		} else {
			res.check(r.checkOutput(ran.out))
		}
		if populated != nil {
			res.check(r.checkOutput(populated))
		}
	}
	return warm, nil
}

// oracle checks the warm-up output against per-access reference replay
// (refsim without sharding, Dinero IV's role in the paper).
func (b *bench) oracle(ctx context.Context, r *workloadRun, warm []byte) {
	w, res := r.w, r.res
	switch w.oracle {
	case oracleRows:
		rows, err := parseRows(warm)
		if err != nil {
			res.check(fmt.Errorf("%s: %w", w.name, err))
			return
		}
		h := fnv.New64a()
		io.WriteString(h, w.name)
		rng := rand.New(rand.NewPCG(b.seed, h.Sum64()))
		for _, i := range rng.Perm(len(rows))[:min(8, len(rows))] {
			row := rows[i]
			ran, err := b.run(ctx, "refsim", "-trace", r.trace, "-sets", strconv.Itoa(row.sets),
				"-assoc", strconv.Itoa(row.assoc), "-block", strconv.Itoa(row.block))
			if err == nil {
				var acc, miss uint64
				if acc, miss, err = parseRefsim(ran.out); err == nil && (acc != row.accesses || miss != row.misses) {
					err = fmt.Errorf("%s: %v: %d accesses / %d misses, per-access refsim %d / %d",
						w.name, row, row.accesses, row.misses, acc, miss)
				}
			}
			res.check(err)
		}
	case oracleRefsim:
		args := r.args(b)
		if i := slices.Index(args, "-shards"); i >= 0 {
			args = slices.Delete(args, i, i+2)
		}
		ran, err := b.run(ctx, w.tool, args...)
		if err == nil {
			err = r.checkOutput(ran.out)
		}
		res.check(err)
	}
}

// traced runs the tracer until the budget is spent and records each
// run's per-layer metrics, plus cli.residual_s against the timed runs.
func (b *bench) traced(ctx context.Context, r *workloadRun, bud budget) error {
	if !b.tracerBuilt {
		if err := b.goBuild(ctx, filepath.Join(b.root, "bench"), filepath.Join(b.bin, "tracer"), "./tracer"); err != nil {
			return err
		}
		b.tracerBuilt = true
	}
	res := r.res
	res.Layers = map[string][]float64{}
	var traced []float64
	for start, n := time.Now(), 0; bud.more(start, n) && ctx.Err() == nil; n++ {
		args := append([]string{"-workload", r.w.name, "-work", r.dir, "--"}, r.args(b)...)
		ran, err := b.run(ctx, "tracer", args...)
		var run span.Run
		var lm map[string]float64
		if err == nil {
			err = json.Unmarshal(ran.out, &run)
		}
		if err == nil && run.Output != "" {
			err = r.checkOutput([]byte(run.Output))
		}
		if err == nil {
			lm, err = layerMetrics(&run)
		}
		res.check(err)
		if err := r.cleanup(); err != nil {
			return err
		}
		if err != nil {
			continue
		}
		for k, v := range lm {
			res.Layers[k] = append(res.Layers[k], v)
		}
		traced = append(traced, lm["cli.traced_s"])
		for _, s := range run.Spans {
			b.spans = append(b.spans, tracedSpan{Workload: r.w.name, Iter: n, Span: s})
		}
	}
	if wall := res.E2E["wall_s"]; len(wall) > 0 {
		for _, t := range traced {
			res.Layers[residualMetric] = append(res.Layers[residualMetric], median(wall)-t)
		}
	}
	return nil
}
