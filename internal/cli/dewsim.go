package cli

import (
	"context"
	"flag"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"dew/internal/cache"
	"dew/internal/core"
	"dew/internal/engine"
	"dew/internal/refsim"
	"dew/internal/report"
	"dew/internal/trace"
)

// DewSim runs one DEW pass: exact simulation of every power-of-two set
// count (plus direct-mapped results) for one (associativity, block size)
// pair in a single pass over the trace. Cancelling ctx stops the engine
// replay between spans (and a sharded replay at shard granularity).
func DewSim(ctx context.Context, env Env, args []string) error {
	fs := flag.NewFlagSet("dewsim", flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	var (
		assoc    = fs.Int("assoc", 4, "tag-list associativity (power of two)")
		block    = fs.Int("block", 32, "block size in bytes (power of two)")
		blocks   = fs.String("blocks", "", "comma-separated block-size ladder: one pass per size, every size fold-derived from a single trace decode at the finest one (engine fast path; overrides -block)")
		minLog   = fs.Int("minlog", 0, "log2 of the smallest set count")
		maxLog   = fs.Int("maxlog", 14, "log2 of the largest set count (14 = paper)")
		policy   = fs.String("policy", "FIFO", "replacement policy: FIFO (DEW's target) or LRU")
		engName  = fs.String("engine", "dew", engineFlagDoc())
		counters = fs.Bool("counters", false, "print DEW property counters (runs the instrumented per-access pass)")
		shards   = fs.Int("shards", 1, "run the pass set-sharded across this many parallel trees, splitting each span as the trace streams in (1 = off, 0 = auto from GOMAXPROCS; -stream-mem sets the span budget); counter-free, incompatible with -counters and ablations")
		csv      = fs.Bool("csv", false, "emit results as CSV instead of an aligned table")
		noMRA    = fs.Bool("no-mra", false, "ablation: disable Property 2 (MRA cut-off)")
		noWave   = fs.Bool("no-wave", false, "ablation: disable Property 3 (wave pointers)")
		noMRE    = fs.Bool("no-mre", false, "ablation: disable Property 4 (MRE entries)")
		wp       = fs.String("write", "", "write policy — write-back (wb) or write-through (wt) — turning the pass into a write-policy replay over a kind-preserving stream (needs a single-configuration engine: -engine ref with -minlog = -maxlog)")
		allocStr = fs.String("alloc", "", "allocation policy for the write-policy replay: write-allocate (wa) or no-write-allocate (nwa)")
		sbytes   = fs.Int("store-bytes", 0, "store width in bytes for write-policy traffic accounting (0 = 4)")
	)
	cacheDir := addCacheFlag(fs)
	streamMemStr := fs.String("stream-mem", "0",
		"span budget of the engine replay: roughly this much stream state stays resident while decode, fold and simulation overlap (e.g. 1MiB; 0 = 8MiB)")
	tf := addTraceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	pol, err := cache.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	if *shards, err = resolveShards(*shards); err != nil {
		return err
	}
	instrumented := *counters || *noMRA || *noWave || *noMRE
	if *shards > 1 && instrumented {
		return usagef("-shards runs the counter-free parallel pass; drop -counters and the ablation switches")
	}
	if instrumented && pol != cache.FIFO {
		return usagef("-counters and the ablation switches instrument DEW's FIFO pass, not %v", pol)
	}
	writeSim := *wp != "" || *allocStr != "" || *sbytes != 0
	var writePol refsim.WritePolicy
	var allocPol refsim.AllocPolicy
	if writeSim {
		if instrumented {
			return usagef("write-policy simulation replays kind-preserving streams on the engine fast path; drop -counters and the ablation switches")
		}
		if *sbytes < 0 {
			return usagef("-store-bytes must be at least 0")
		}
		if writePol, err = parseWritePolicy(*wp); err != nil {
			return err
		}
		if allocPol, err = parseAllocPolicy(*allocStr); err != nil {
			return err
		}
	}
	if instrumented && *engName != "dew" {
		return usagef("-counters and the ablation switches are DEW core instrumentation; drop -engine %s", *engName)
	}
	blockLadder := []int{*block}
	if *blocks != "" {
		if instrumented {
			return usagef("-blocks replays fold-derived streams on the engine fast path; drop -counters and the ablation switches")
		}
		var err error
		if blockLadder, err = parseBlockLadder(*blocks); err != nil {
			return err
		}
	}
	streamMem, err := parseMemBytes(*streamMemStr)
	if err != nil {
		return err
	}
	if streamMem > 0 && instrumented {
		return usagef("-stream-mem replays the engine fast path; drop -counters and the ablation switches")
	}

	var (
		results  []engine.Result
		accesses uint64
		mode     string
		sim      *core.Simulator
		elapsed  time.Duration
		traffics []rungTraffic
	)
	if instrumented {
		// Instrumented per-access pass: the Table 3/4 measurement path,
		// outside the engine seam by design (the engine contract is
		// counter-free).
		opt := core.Options{
			MinLogSets: *minLog, MaxLogSets: *maxLog,
			Assoc: *assoc, BlockSize: *block,
			DisableMRA: *noMRA, DisableWave: *noWave, DisableMRE: *noMRE,
		}
		if err := opt.Validate(); err != nil {
			return err
		}
		r, closer, err := tf.open()
		if err != nil {
			return err
		}
		if closer != nil {
			defer closer.Close()
		}
		start := time.Now()
		if sim, err = core.Run(opt, r); err != nil {
			return err
		}
		elapsed = time.Since(start)
		for _, res := range sim.Results() {
			results = append(results, engine.Result(res))
		}
		accesses = sim.Counters().Accesses
		mode = fmt.Sprintf("single instrumented pass, %v", pol)
	} else {
		// Engine fast path: one engine.Plan over the block ladder. It
		// probes the result tier first — a fully-warm ladder skips the
		// decode, the folds and every replay, a partially-warm one
		// replays only the rungs that missed — builds every live engine
		// before any stream work, then decodes the trace once into
		// bounded spans at the finest rung, fold-derives the coarser
		// rungs span by span and replays them concurrently (split into
		// set-substreams when sharding), bit-identical to one monolithic
		// replay, and publishes every replayed rung. Decode and folding
		// are timed here: unlike the sweep, this tool has no second
		// consumer to amortize them.
		plan := &engine.Plan{Kinds: writeSim}
		if plan.Store, plan.SourceID, err = tf.openSourceCache(*cacheDir); err != nil {
			return err
		}
		for _, b := range blockLadder {
			plan.Passes = append(plan.Passes, engine.Pass{Engine: *engName, Spec: engine.Spec{
				MinLogSets: *minLog, MaxLogSets: *maxLog,
				Assoc: *assoc, BlockSize: b, Policy: pol,
				WriteSim: writeSim, Write: writePol, Alloc: allocPol, StoreBytes: *sbytes,
			}})
		}
		log := trace.ShardLog(*shards, *maxLog)
		start := time.Now()
		passes, resident, err := plan.Replay(ctx, engine.Spans{
			Blocks: blockLadder, ShardLog: log,
			Decode: tf.spans(ctx, blockLadder[0], streamMem, writeSim),
		})
		if err != nil {
			return err
		}
		elapsed = time.Since(start)
		cachedRungs := 0
		for i, pr := range passes {
			results = append(results, pr.Results...)
			accesses = pr.Accesses
			if pr.Traffic != nil {
				traffics = append(traffics, rungTraffic{blockLadder[i], *pr.Traffic})
			}
			if pr.Cached {
				cachedRungs++
			}
		}
		mode = fmt.Sprintf("single %s pass", *engName)
		if len(blockLadder) > 1 {
			mode = fmt.Sprintf("%d %s passes", len(blockLadder), *engName)
		}
		switch {
		case resident == 0:
			mode += fmt.Sprintf(" fully result-cached (0 simulations, 0 trace decodes), %v", pol)
		default:
			if len(blockLadder) > 1 {
				mode += " over a fold-derived block ladder"
			}
			if log >= 0 {
				mode += fmt.Sprintf(" sharded across %d substreams,", 1<<log)
			}
			mode += fmt.Sprintf(" %s, %v", spanNote(resident), pol)
			if cachedRungs > 0 {
				mode += fmt.Sprintf(", %d/%d rungs result-cached", cachedRungs, len(blockLadder))
			}
		}
		if writeSim {
			mode += fmt.Sprintf(", write-policy %v/%v", writePol, allocPol)
		}
	}

	return renderDewSim(env, *csv, *counters, results, accesses, mode, sim, elapsed, traffics)
}

// rungTraffic pairs one block-ladder rung with its write-policy
// memory-traffic record.
type rungTraffic struct {
	block   int
	traffic refsim.Traffic
}

// renderDewSim prints the result table, the mode line, per-rung
// traffic and (on the instrumented path) the property counters.
func renderDewSim(env Env, csv, counters bool, results []engine.Result, accesses uint64, mode string, sim *core.Simulator, elapsed time.Duration, traffics []rungTraffic) error {
	tbl := report.NewTable("", "sets", "assoc", "block", "size", "accesses", "misses", "missRate")
	for _, res := range results {
		tbl.AddRow(res.Config.Sets, res.Config.Assoc, res.Config.BlockSize,
			cache.FormatSize(res.Config.SizeBytes()),
			res.Accesses, res.Misses, fmt.Sprintf("%.4f", res.MissRate()))
	}
	var err error
	if csv {
		err = tbl.RenderCSV(env.Stdout)
	} else {
		err = tbl.Render(env.Stdout)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(env.Stdout, "\nsimulated %d configurations over %d requests in %v (%s)\n",
		tbl.Rows(), accesses, elapsed.Round(time.Millisecond), mode)
	for _, rt := range traffics {
		fmt.Fprintf(env.Stdout, "traffic B=%d: %d bytes from memory, %d to memory (%d writebacks)\n",
			rt.block, rt.traffic.BytesFromMemory, rt.traffic.BytesToMemory, rt.traffic.Writebacks)
	}
	if counters {
		c := sim.Counters()
		fmt.Fprintf(env.Stdout, "node evaluations:   %d (unoptimized bound %d)\n", c.NodeEvaluations, sim.UnoptimizedEvaluations())
		fmt.Fprintf(env.Stdout, "P2 MRA cut-offs:    %d\n", c.MRACount)
		fmt.Fprintf(env.Stdout, "P3 wave decisions:  %d\n", c.WaveCount)
		fmt.Fprintf(env.Stdout, "P4 MRE decisions:   %d\n", c.MRECount)
		fmt.Fprintf(env.Stdout, "tag-list searches:  %d\n", c.Searches)
		fmt.Fprintf(env.Stdout, "tag comparisons:    %d\n", c.TagComparisons)
		fmt.Fprintf(env.Stdout, "tree storage (paper accounting): %d bits\n", sim.Options().PaperBits())
	}
	return nil
}

// parseBlockLadder parses the -blocks list into ascending distinct
// block sizes (the finest is the ladder's single decode rung; sizes are
// validated as powers of two by the engine specs and the fold).
func parseBlockLadder(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || b < 1 {
			return nil, usagef("-blocks: bad block size %q", part)
		}
		out = append(out, b)
	}
	sort.Ints(out)
	out = slices.Compact(out)
	return out, nil
}
