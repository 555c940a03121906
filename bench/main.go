// Command bench is the simulator's end-to-end benchmark of record. It
// builds the tools from the checkout, writes seeded traces with
// tracegen, times real tool processes on them (wall time, CPU time,
// peak RSS, set-up time), checks every output against the warm-up run
// and the warm-up against per-access reference replay, and splits the
// same work into layers with a separate traced run. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-seed N] [-seconds S] [-out FILE] [-spans FILE] [-quick]
//	bash bench/run.sh -workload NAME -seed N -seconds S -trace 0|1
//	bash bench/run.sh -compare BASE.json NEW.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "..", "repository root, holding BENCHMARK.json and the simulator's source")
	name := fs.String("workload", "", "run one workload and print one JSON result line (default: every workload, with a report)")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "how long each workload's timed runs go on (default: run_seconds of BENCHMARK.json)")
	traceMode := fs.Int("trace", 0, "with -workload: 1 reports per-layer metrics from traced runs instead of end-to-end ones")
	out := fs.String("out", "", "report file of a full run (default .bench_build/report.json under -root)")
	spansFile := fs.String("spans", "", "write every traced span to this file, one JSON object per line")
	compare := fs.String("compare", "", "compare report `BASE` with the report named by the first argument instead of running")
	quick := fs.Bool("quick", false, "smoke run: 20k-access inputs, one run of each step; measures nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec(abs)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare BASE.json NEW.json")
			return 2
		}
		if err := compareReports(stdout, spec, *compare, fs.Arg(0)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	var only []workload
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		only = []workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{
		root:  abs,
		bin:   filepath.Join(abs, ".bench_build", "bin"),
		work:  filepath.Join(abs, ".bench_build", "work-"+strconv.Itoa(os.Getpid())),
		seed:  *seed,
		quick: *quick,
		env:   childEnv(),
		log:   stderr,
	}
	defer os.RemoveAll(b.work)
	if b.digests, err = loadDigests(abs); err == nil {
		err = b.buildTools(ctx)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	budget := time.Duration(*seconds * float64(time.Second))
	if only != nil {
		p := plan{setupReps: 3, runs: fixedOr(b.quick, budget, 3)}
		if *traceMode == 1 {
			p = plan{setupReps: 1, runs: fixedOr(b.quick, budget/2, 3), traced: fixedOr(b.quick, budget/2, 3)}
		}
		if b.quick {
			p.setupReps = 1
		}
		res, err := b.runWorkload(ctx, only[0], p)
		if err == nil {
			err = b.writeSpans(*spansFile)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		metrics := spec.EndToEnd
		if *traceMode == 1 {
			metrics = spec.PerLayer
		}
		if err := printLine(stdout, res, metrics); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	p := plan{setupReps: 3, runs: fixedOr(b.quick, budget, 3), traced: fixedOr(b.quick, budget/2, 3)}
	if b.quick {
		p.setupReps = 1
	}
	rep := &report{Seed: b.seed, Seconds: *seconds, Quick: b.quick, Host: hostInfo()}
	for _, w := range workloads {
		res, err := b.runWorkload(ctx, w, p)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		rep.Results = append(rep.Results, res)
	}
	if *out == "" {
		*out = filepath.Join(abs, ".bench_build", "report.json")
	}
	printReport(stdout, spec, rep)
	if err := writeJSON(*out, rep); err == nil {
		err = b.writeSpans(*spansFile)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nreport written to %s\n", *out)
	for _, res := range rep.Results {
		if res.Failed > 0 {
			return 1
		}
	}
	return 0
}

// fixedOr is one step under -quick, else d and at least min steps.
func fixedOr(quick bool, d time.Duration, min int) budget {
	if quick {
		return budget{min: 1}
	}
	return budget{d: d, min: min}
}

// childEnv is the tools' environment: this process's, without the
// artifact cache default, so every cache a run uses is the benchmark's.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "DEW_CACHE=") {
			env = append(env, kv)
		}
	}
	return env
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: the names,
// units and bounds of the metrics it must report, and how long one run
// measures.
type benchSpec struct {
	RunSeconds float64      `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

var endToEnd = map[string]bool{"wall_s": true, "cpu_s": true, "peak_rss_mb": true, "setup_s": true}

func loadSpec(root string) (*benchSpec, error) {
	var spec benchSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		return nil, err
	}
	known := knownLayerMetrics()
	for _, m := range spec.EndToEnd {
		if !endToEnd[m.Name] {
			return nil, fmt.Errorf("BENCHMARK.json: no end-to-end metric %q", m.Name)
		}
	}
	for _, m := range spec.PerLayer {
		if !known[m.Name] {
			return nil, fmt.Errorf("BENCHMARK.json: no per-layer metric %q", m.Name)
		}
	}
	return &spec, nil
}

// loadDigests reads the committed seed-1 output digests.
func loadDigests(root string) (map[string]string, error) {
	d := map[string]string{}
	return d, readJSON(filepath.Join(root, "bench", "digests.json"), &d)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printLine prints the one-line result of a -workload run: the median of
// each metric's samples.
func printLine(w io.Writer, res *result, metrics []metricSpec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range metrics {
		samples := res.E2E[m.Name]
		if samples == nil {
			samples = res.Layers[m.Name]
		}
		v := median(samples)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, line.Correct = 0, false
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}

// writeSpans writes the traced spans, one JSON object per line.
func (b *bench) writeSpans(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range b.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return errors.Join(f.Sync(), f.Close())
}
