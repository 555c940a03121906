// Package explore turns DEW passes into a full design-space exploration:
// given a parameter space like the paper's Table 1 (525 configurations)
// and a replayable trace source, it decodes the trace exactly once — a
// run-compressed trace.BlockStream at the space's finest block size —
// derives every coarser block size from it by folding
// (trace.FoldBlockStream, O(runs) per rung instead of a re-decode), and
// schedules one DEW pass per (block size, associativity) pair — each
// pass covering every set count plus the direct-mapped configurations
// for free — across a worker pool, merging the exact per-configuration
// results. Every pass for a block size replays the same read-only
// stream, and the raw trace itself is read exactly once per exploration
// regardless of how many block sizes the space spans; this is the
// "finding the optimal L1 cache" workflow of the paper's introduction,
// packaged as a library (see cmd/explore and examples/designspace for
// front ends).
//
// The materialized schedule keeps only what the running passes need.
// The fold ladder slides: each coarser rung is folded the first time a
// pass asks for it and released after its last pass, so about two
// rungs are resident rather than the whole ladder. Engines are
// recycled: a finished pass's engine is rebound to the next pass's
// block size (engine.Reuse) instead of rebuilt, so at most workers ×
// associativities engine arenas exist over the run.
//
// Passes run on a simulation engine resolved by name from the engine
// registry (Request.Engine, default "dew"), through a single dispatch
// site — an unsharded exploration replays plain materialized streams,
// a streamed or sharded one replays the spans of the bounded decode
// pipeline (each span split into a trace.ShardStream partition when
// sharding), and the engine neither knows nor cares which workflow
// drove it.
package explore

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"dew/internal/cache"
	"dew/internal/engine"
	"dew/internal/pool"
	"dew/internal/store"
	"dew/internal/trace"
	"dew/internal/workload"
)

// Source produces independent readers over the same trace; each
// materialization consumes one reader. Implementations must be safe for
// concurrent calls.
type Source func() trace.Reader

// FromApp returns a Source that regenerates a workload-model trace
// deterministically (seed-identical streams for every pass).
func FromApp(app workload.App, seed uint64, requests uint64) Source {
	return func() trace.Reader {
		return workload.Stream(app.Generator(seed), requests)
	}
}

// Request describes an exploration.
type Request struct {
	// Space is the configuration space to cover.
	Space cache.ParamSpace
	// Source provides the trace.
	Source Source
	// Workers bounds concurrent DEW passes — or, on the span pipeline
	// (StreamMem, Shards), the decode workers, the block-size rungs
	// replayed concurrently per span and each sharded pass's fan-out;
	// 0 means GOMAXPROCS.
	Workers int
	// Shards, when at least 2, runs every DEW pass in set-sharded
	// parallel form on the span pipeline: each span of each block size
	// is partitioned once into 2^S substreams (S the shard level, Shards
	// rounded up to a power of two and capped at Space.MaxLogSets)
	// shared by all passes at that block size, and the parallelism moves
	// inside the pass — each pass fans its trees across Workers
	// goroutines. The span budget is StreamMem, or
	// trace.DefaultSpanMemBytes when StreamMem is 0. Prefer it when the
	// space has few passes on many cores (wide spaces already saturate
	// the machine with pass-level parallelism). Results are
	// bit-identical either way. 0 or 1 keeps the monolithic per-pass
	// replay.
	Shards int
	// Policy selects the replacement policy for every pass: cache.FIFO
	// (the default, DEW's target) or cache.LRU (exact but slower; see
	// core.Options.Policy).
	Policy cache.Policy
	// Engine names the registered simulation engine every pass runs on
	// (see the engine package); "" means "dew". Any multi-configuration
	// engine registered under the chosen policy works — e.g. "lrutree"
	// with Policy cache.LRU.
	Engine string
	// StreamMem, when positive, runs the exploration's replay through
	// the bounded span pipeline instead of materializing the finest
	// stream: the raw trace decodes chunk-parallel into run-compressed
	// spans (trace.StreamSpans), the span-ladder driver
	// (engine.SpanLadder) folds every coarser rung span-by-span, and
	// every pass's engine consumes its rung's spans as they appear —
	// decode, fold and simulation overlap, and the pipeline's resident
	// stream state stays within roughly StreamMem bytes no matter the
	// trace length (Result.StreamPeakBytes reports the exact bound).
	// Results are bit-identical to the materialized path; what moves is
	// peak memory and scheduling — the passes share one streaming pass
	// in which each span's block-size rungs replay concurrently across
	// Workers, every rung's passes in order (Workers also sizes the
	// pipeline's decode stage). With Shards ≥ 2 it sets the sharded
	// replay's span budget. 0 keeps the materialized path for unsharded
	// explorations.
	StreamMem int64
	// Kinds, when set, materializes the kind-preserving stream
	// (trace.MaterializeBlockStreamWithKinds, or kind-preserving spans on
	// the span pipeline) instead of folding request kinds away, and reports
	// the trace-wide per-kind access totals in Result.KindTotals. The
	// ID and run columns — and therefore every pass result — are
	// bit-identical either way; the totals feed the energy model's
	// read/write split (energy.Model.RankSplit).
	Kinds bool
	// Progress, when non-nil, is called after each finished pass with
	// the number of completed and total passes. Calls are serialized.
	Progress func(done, total int)
	// Cache, when non-nil together with a non-empty SourceID, is the
	// content-addressed artifact store consulted at two tiers. The
	// result tier first: every pass's finished per-configuration
	// results are probed before any stream work (engine.Plan, whose
	// pass records dewsim shares), and only the passes that miss are
	// simulated — a fully-warm exploration performs zero simulations
	// and zero decodes, and a partially-warm one runs only the delta,
	// publishing each simulated pass on completion. Then the stream tier: when any pass
	// simulates, a hit loads the finest-rung stream from disk (the fold
	// ladder is still derived in O(runs)) instead of decoding the raw
	// trace; a miss decodes once and publishes the stream for every
	// later run. Corrupt entries in either tier are quarantined and
	// re-simulated or re-decoded transparently.
	Cache *store.Store
	// SourceID is the content identity of the trace behind Source
	// (store.FileID / store.AppID / store.TraceID) — the caller vouches
	// that Source and SourceID describe the same bytes. "" disables the
	// cache even when Cache is set.
	SourceID string
	// NoWarmCheck disables the sampled warm check: by default a run
	// with any result-tier hits re-simulates one of them live and
	// compares it configuration-for-configuration against the cached
	// copy, dropping the entry and failing the run on divergence.
	// Timing-pure warm benchmarks set this to measure pure cache-hit
	// throughput.
	NoWarmCheck bool
}

// Result holds the merged outcome of an exploration.
type Result struct {
	// Stats maps every configuration in the space to its exact outcome.
	Stats map[cache.Config]cache.Stats
	// Passes is the number of DEW passes executed: one per
	// (block size, associativity>1) pair, or one per block size in an
	// associativity-1-only space. Each pass replays a shared stream —
	// decoded once at the finest block size and fold-derived above it —
	// so the raw trace itself is read exactly Decodes (= 1) times. The
	// passes take the counter-free fast path, so no per-pass work
	// counters are collected here; use core.Simulator directly (or the
	// sweep package) when Table 3/4-style counters are wanted.
	Passes int
	// Decodes is the number of full raw-trace reads the exploration
	// performed: 1 on a cold run — the finest block size's
	// materialization (or span pipeline) — and 0 on a warm run whose
	// finest-rung stream came from the artifact store (CacheHit). Every
	// other block size's stream is always fold-derived.
	Decodes int
	// Folds is the number of block sizes whose stream was derived by
	// folding a finer rung instead of re-decoding the trace —
	// len(StreamCompression) - Decodes.
	Folds int
	// StreamCompression maps each block size to the run-compression
	// ratio (accesses per stream entry) of its stream — the work every
	// pass at that block size was spared. Folding preserves the access
	// count, so fold-derived rungs report exact ratios without the raw
	// trace being re-counted; an empty trace reports 0 at every rung.
	StreamCompression map[int]float64
	// Shards is the number of trees each sharded pass fanned out
	// across; 0 when the passes ran monolithic.
	Shards int
	// KindTotals holds the trace-wide per-kind access totals (indexed
	// by trace.Kind) when Request.Kinds materialized the kind channel;
	// all zeros otherwise. Every configuration replays the same trace,
	// so the totals apply to every entry of Stats.
	KindTotals [3]uint64
	// CacheHit reports that the finest-rung stream was loaded from the
	// artifact store (or shared from a concurrent materialization)
	// instead of decoded from the raw trace; Decodes is 0 in that case.
	// A fully result-warm run builds no streams at all, so CacheHit is
	// false there too — distinguish it by CellsSimulated == 0.
	CacheHit bool
	// CacheKey is the store key consulted for the finest-rung stream;
	// "" when the run had no cache.
	CacheKey string
	// Streamed reports that the run replayed through the bounded span
	// pipeline (Request.StreamMem) instead of materialized streams;
	// StreamPeakBytes is the pipeline's worst-case resident stream
	// footprint under its resolved geometry — the figure the memory
	// budget actually bought. Both are zero on materialized and
	// fully-warm runs.
	Streamed        bool
	StreamPeakBytes int64
	// CellsSimulated and CellsCached split Passes by provenance: passes
	// replayed by the engine this run versus passes served whole from
	// the store's result tier. WarmVerified counts the cached passes
	// additionally re-simulated live as the sampled warm check (inside
	// CellsCached, not CellsSimulated — the reported rows are the
	// cached ones, verified). Without a cache, CellsSimulated == Passes.
	CellsSimulated, CellsCached, WarmVerified int
}

// Run executes the exploration.
//
// Cancelling ctx stops the run at its natural grain — the decode
// chunk or span during the one raw-trace decode, then the pass — and
// returns ctx's error with the worker pool drained and no goroutines
// left behind. A panic inside a pass surfaces as a *pool.PanicError.
func Run(ctx context.Context, req Request) (*Result, error) {
	if err := req.Space.Validate(); err != nil {
		return nil, err
	}
	if req.Source == nil {
		return nil, fmt.Errorf("explore: nil trace source")
	}
	workers := req.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	name := req.Engine
	if name == "" {
		name = "dew"
	}

	// Result-tier probe (delta scheduling): with a cache and a source
	// identity, every pass's finished results are looked up before any
	// stream work. Only the passes that miss — plus one sampled warm
	// pass re-run live as a cross-check — are simulated; when nothing
	// needs an engine, the stream machinery below is skipped entirely.
	// The pass records are the ones every engine.Plan caller shares, so
	// a pass dewsim published answers here too.
	plan := &engine.Plan{Store: req.Cache, SourceID: req.SourceID, Kinds: req.Kinds, WarmCheck: !req.NoWarmCheck}
	var rungOf []int // each pass's index in the block-size ladder
	addPass := func(k, block, assoc int) {
		rungOf = append(rungOf, k)
		plan.Passes = append(plan.Passes, engine.Pass{Engine: name, Spec: engine.Spec{
			MinLogSets: req.Space.MinLogSets, MaxLogSets: req.Space.MaxLogSets,
			Assoc: assoc, BlockSize: block, Policy: req.Policy,
		}})
	}
	// One pass per (block, assoc) with assoc > 1; the pass also yields
	// the direct-mapped row. A space containing only associativity 1
	// needs explicit assoc-1 passes.
	for k, b := range req.Space.BlockSizes() {
		n := len(rungOf)
		for _, a := range req.Space.Assocs() {
			if a > 1 {
				addPass(k, b, a)
			}
		}
		if len(rungOf) == n {
			addPass(k, b, 1)
		}
	}
	allWarm := plan.Probe(ctx) == 0

	// Bounded streaming replay: one span pipeline at the finest rung
	// feeds every pass through the streaming fold ladder — each span
	// split into a shard partition for sharded passes — bit-identical to
	// the materialized schedule below. A fully-warm run takes the same
	// route, which builds no streams when no pass is live.
	shardLog := trace.ShardLog(req.Shards, req.Space.MaxLogSets)
	if req.StreamMem > 0 || shardLog >= 0 || allWarm {
		return runStreamed(ctx, req, plan, workers, shardLog)
	}

	// Build the per-block-size inputs: one raw-trace materialization at
	// the finest block size, every coarser size fold-derived from it on
	// demand by the sliding ladder below (O(runs) per rung, bit-identical
	// to a direct materialization at that size).
	blocks := req.Space.BlockSizes() // ascending; blocks[0] is the decode rung
	materialize := trace.MaterializeBlockStream
	if req.Kinds {
		// The kind channel rides along through folding; the engines'
		// replay columns are unchanged.
		materialize = trace.MaterializeBlockStreamWithKinds
	}
	// With a cache, the store is consulted before the decode: only the
	// finest-rung stream is stored (folding re-derives in O(runs)).
	cacheKey, cacheHit := streamKey(req), false
	var base *trace.BlockStream
	var err error
	if cacheKey != "" {
		base, cacheHit, err = req.Cache.GetOrMaterialize(ctx, cacheKey, blocks[0], req.Kinds,
			func(ctx context.Context) (*trace.BlockStream, error) {
				return materialize(req.Source(), blocks[0])
			})
	} else {
		base, err = materialize(req.Source(), blocks[0])
	}
	if err != nil {
		return nil, fmt.Errorf("explore: materializing block-%d stream: %w", blocks[0], err)
	}

	var (
		mu   sync.Mutex
		done int
		res  = &Result{
			Stats:             make(map[cache.Config]cache.Stats, req.Space.Count()),
			StreamCompression: make(map[int]float64, len(blocks)),
		}
		// free holds the engines of finished passes by associativity for
		// the next pass to rebind (engine.Reuse), so the run builds at
		// most workers × len(assocs) engines instead of one per pass.
		free = map[int][]engine.Engine{}
		// The sliding fold ladder: rung k+1 is folded from rung k the
		// first time a pass needs it (once, outside mu), and rung k is
		// released once its last pass has merged and rung k+1 exists.
		// Passes are claimed in rung order, so only the rungs under
		// replay stay resident. mu guards rungs, built and pending.
		rungs   = make([]*trace.BlockStream, len(blocks))
		pending = make([]int, len(blocks))
		built   = 1 // rungs[:built] have been derived
		foldMu  sync.Mutex
	)
	for _, k := range rungOf {
		pending[k]++
	}
	release := func(k int) {
		if pending[k] == 0 && (k+1 < built || k+1 == len(rungs)) {
			rungs[k] = nil
		}
	}
	rung := func(k int) *trace.BlockStream {
		foldMu.Lock()
		defer foldMu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		for built <= k {
			n, src := built, rungs[built-1]
			mu.Unlock()
			next := trace.FoldBlockStream(src) // block sizes are consecutive doublings
			mu.Lock()
			rungs[n], built = next, n+1
			res.StreamCompression[blocks[n]] = next.CompressionRatio()
			release(n - 1)
		}
		return rungs[k]
	}
	res.CacheKey = cacheKey
	rungs[0] = base
	res.StreamCompression[blocks[0]] = base.CompressionRatio()
	res.Decodes = 1
	res.Folds = len(blocks) - 1
	if cacheHit {
		res.CacheHit = true
		res.Decodes = 0
	}
	if req.Kinds {
		// Folding preserves per-kind weights exactly, so any rung
		// reports the same totals.
		res.KindTotals = base.KindTotals()
		plan.KindTotals = res.KindTotals
	}
	includeAssoc1 := req.Space.MinLogAssoc == 0

	// merge folds one pass's results into the shared tables, recycles
	// its engine (nil for a result-tier hit) and releases its rung when
	// it was the last pass over it.
	merge := func(i int, eng engine.Engine, r engine.PassResult) error {
		mu.Lock()
		defer mu.Unlock()
		if err := res.add(includeAssoc1, r); err != nil {
			return err
		}
		done++
		if _, ok := eng.(engine.Rebinder); ok {
			a := plan.Passes[i].Spec.Assoc
			free[a] = append(free[a], eng)
		}
		pending[rungOf[i]]--
		release(rungOf[i])
		if req.Progress != nil {
			req.Progress(done, len(rungOf))
		}
		return nil
	}

	if err := pool.Run(ctx, workers, len(rungOf), func(i int) error {
		spec := plan.Passes[i].Spec
		// Every pass, warm or not, takes its rung: the ladder folds each
		// rung exactly once, so StreamCompression covers every block size.
		bs := rung(rungOf[i])
		if !plan.Live(i) {
			// Served whole from the result tier: zero engine work.
			r, _ := plan.Cached(i)
			return merge(i, nil, r)
		}
		// The exploration's single engine-dispatch site: rebind a
		// recycled engine (or build one) and replay the shared stream. An
		// engine whose replay failed is dropped, never recycled.
		mu.Lock()
		var eng engine.Engine
		if n := len(free[spec.Assoc]); n > 0 {
			eng, free[spec.Assoc] = free[spec.Assoc][n-1], free[spec.Assoc][:n-1]
		}
		mu.Unlock()
		eng, err := engine.Reuse(eng, name, spec)
		if err == nil {
			err = engine.Replay(ctx, eng, bs, nil)
		}
		if err != nil {
			return fmt.Errorf("explore: pass B=%d A=%d: %w", spec.BlockSize, spec.Assoc, err)
		}
		// Verify the warm check or publish the finished pass.
		r, err := plan.Finish(ctx, i, eng, bs.Accesses, uint64(bs.Len()))
		if err != nil {
			return err
		}
		return merge(i, eng, r)
	}); err != nil {
		return nil, err
	}
	if len(res.Stats) != req.Space.Count() {
		return nil, fmt.Errorf("explore: covered %d of %d configurations", len(res.Stats), req.Space.Count())
	}
	return res, nil
}
