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
	"dew/internal/store"
	"dew/internal/sweep"
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
	if *shards < 0 {
		return usagef("-shards must be at least 0")
	}
	if *shards == 0 {
		*shards = sweep.AutoShards()
	}
	instrumented := *counters || *noMRA || *noWave || *noMRE
	if *shards > 1 && instrumented {
		return usagef("-shards runs the counter-free parallel pass; drop -counters and the ablation switches")
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
			Assoc: *assoc, BlockSize: *block, Policy: pol,
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
		// Engine fast path: decode the trace exactly once, into
		// run-compressed spans at the finest requested block size,
		// fold-derive every coarser rung of the block ladder from each
		// span, and replay each rung through the requested engine.
		// Decode and folding are timed here — unlike the sweep, this
		// tool has no second consumer to amortize them.
		specFor := func(b int) engine.Spec {
			return engine.Spec{
				MinLogSets: *minLog, MaxLogSets: *maxLog,
				Assoc: *assoc, BlockSize: b, Policy: pol,
				WriteSim: writeSim, Write: writePol, Alloc: allocPol, StoreBytes: *sbytes,
			}
		}
		// Fail fast on a bad spec or engine/policy combination before
		// paying for the trace decode (engine construction is cheap —
		// the arenas build lazily on first replay).
		for _, b := range blockLadder {
			if _, err := engine.New(*engName, specFor(b)); err != nil {
				return err
			}
		}
		cacheStore, err := openCache(*cacheDir)
		if err != nil {
			return err
		}
		// Result-tier probe: each rung's finished pass is looked up
		// before any stream work. A fully-warm ladder skips the decode,
		// the folds and every replay; a partially-warm one decodes once
		// and replays only the rungs that missed.
		var cacheKey string
		rungKeys := make([]string, len(blockLadder))
		rungWarm := make([]*store.ResultBlob, len(blockLadder))
		allWarm := false
		if cacheStore != nil {
			srcID, err := tf.sourceID()
			if err != nil {
				return err
			}
			cacheKey = store.Key(srcID, blockLadder[0], 0, writeSim)
			allWarm = true
			for i, b := range blockLadder {
				specKey := specFor(b).CacheKey()
				rungKeys[i] = store.ResultKey(store.Key(srcID, b, 0, writeSim), *engName, specKey)
				rb, err := cacheStore.GetResult(ctx, rungKeys[i], *engName, specKey)
				if err == nil && len(rb.Scalars) == 1 && rb.HasRef == writeSim && len(rb.Records) > 0 {
					rungWarm[i] = rb
				} else {
					allWarm = false
				}
			}
		}
		// mergeRung folds one cached rung's payload into the output rows.
		mergeRung := func(i int) {
			rb := rungWarm[i]
			accesses = rb.Scalars[0]
			for _, rec := range rb.Records {
				results = append(results, engine.Result{Config: rec.Config, Stats: rec.Stats})
				if rec.Traffic != nil {
					traffics = append(traffics, rungTraffic{blockLadder[i], *rec.Traffic})
				}
			}
		}
		start := time.Now()
		if allWarm {
			for i := range blockLadder {
				mergeRung(i)
			}
			elapsed = time.Since(start)
			if len(blockLadder) == 1 {
				mode = fmt.Sprintf("single %s pass fully result-cached (0 simulations, 0 trace decodes), %v", *engName, pol)
			} else {
				mode = fmt.Sprintf("%d %s passes fully result-cached (0 simulations, 0 trace decodes), %v",
					len(blockLadder), *engName, pol)
			}
			if writeSim {
				mode += fmt.Sprintf(", write-policy %v/%v", writePol, allocPol)
			}
			return renderDewSim(env, *csv, *counters, results, accesses, mode, sim, elapsed, traffics)
		}
		// One bounded span pipeline decodes the trace chunk-parallel,
		// and the span-ladder driver folds every rung from each span as
		// it appears and replays the live rungs concurrently — each span
		// split into set-substreams when sharding — so decode, fold and
		// simulation overlap in bounded memory while the accumulated
		// statistics stay bit-identical to one monolithic replay. Warm
		// rungs still merge from the result tier; a cold artifact cache
		// additionally receives the finest rung, spooled span by span
		// without the pass ever re-buffering the stream, and a run
		// without an explicit -stream-mem takes a stream-tier hit
		// instead of decoding (see engine.SpanInput).
		log := trace.ShardLog(*shards, *maxLog)
		engs := make(map[int][]engine.Engine, len(blockLadder))
		for i, b := range blockLadder {
			if rungWarm[i] != nil {
				continue
			}
			eng, err := engine.New(*engName, specFor(b))
			if err != nil {
				return err
			}
			engs[b] = []engine.Engine{eng}
		}
		ladder, err := engine.NewSpanLadder(blockLadder[0], blockLadder, writeSim, log, 0, engs)
		if err != nil {
			return err
		}
		src, err := openSpans(ctx, tf, cacheStore, cacheKey, blockLadder[0], writeSim, streamMem)
		if err != nil {
			return err
		}
		defer src.Close()
		if err := src.Replay(ctx, ladder, nil); err != nil {
			return err
		}
		cachedRungs := 0
		for i, b := range blockLadder {
			if rungWarm[i] != nil {
				mergeRung(i)
				cachedRungs++
				continue
			}
			eng := engs[b][0]
			rungResults := eng.Results()
			results = append(results, rungResults...)
			accesses = eng.Accesses()
			if writeSim {
				if ts, ok := eng.(engine.TrafficStatser); ok {
					traffics = append(traffics, rungTraffic{b, ts.RefTraffic()})
				}
			}
			publishRung(ctx, cacheStore, rungKeys[i], *engName, specFor(b).CacheKey(), writeSim, eng, rungResults)
		}
		elapsed = time.Since(start)
		if len(blockLadder) == 1 {
			mode = fmt.Sprintf("single %s pass", *engName)
		} else {
			mode = fmt.Sprintf("%d %s passes over a fold-derived block ladder", len(blockLadder), *engName)
		}
		if log >= 0 {
			mode += fmt.Sprintf(" sharded across %d substreams,", 1<<log)
		}
		mode += fmt.Sprintf(" %s, %v", spanNote(src), pol)
		if cachedRungs > 0 {
			mode += fmt.Sprintf(", %d/%d rungs result-cached", cachedRungs, len(blockLadder))
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

// publishRung publishes one finished dewsim rung to the store's result
// tier, best-effort. Write-policy rungs must carry the full reference
// record (stats plus traffic) and are skipped when the engine cannot
// supply it for a single configuration.
func publishRung(ctx context.Context, st *store.Store, key, engName, specKey string, writeSim bool, eng engine.Engine, results []engine.Result) {
	if st == nil || key == "" {
		return
	}
	rb := &store.ResultBlob{
		Engine: engName, SpecKey: specKey, HasRef: writeSim,
		Scalars: []uint64{eng.Accesses()},
		Records: make([]store.ResultRecord, len(results)),
	}
	for i, res := range results {
		rb.Records[i] = store.ResultRecord{Config: res.Config, Stats: res.Stats}
	}
	if writeSim {
		rs, okR := eng.(engine.RefStatser)
		ts, okT := eng.(engine.TrafficStatser)
		if !okR || !okT || len(results) != 1 {
			return
		}
		refStats := rs.RefStats()
		traffic := ts.RefTraffic()
		rb.Records[0].Ref = &refStats
		rb.Records[0].Traffic = &traffic
	}
	st.PutResult(ctx, key, rb)
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
