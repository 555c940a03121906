// Package sweep orchestrates the paper's experimental methodology
// (Section 5): for a given trace and (block size, associativity) pair it
// runs one DEW pass — which covers every set count plus the direct-mapped
// configurations — and, as the baseline, one reference-simulator pass per
// configuration, exactly how Dinero IV had to be run. It records wall
// times, tag comparisons and DEW's property counters, and cross-checks
// every configuration's miss count between the two simulators (the
// paper's exactness verification).
//
// # Stream materialization and sharing
//
// A cell materializes its workload trace exactly once, and from it one
// run-compressed trace.BlockStream at the cell's block size (see the
// trace package: consecutive same-block accesses collapse into one
// weighted run). Both timed sides replay that same read-only stream —
// the timed DEW pass through core.SimulateStream, every reference pass
// through refsim.SimulateStream — so DEWTime and RefTime measure pure
// simulation over identical inputs, with the one-off decode-and-shift
// cost of materialization charged to neither side. Run folding is exact
// on both sides (DEW's Property 2; a deterministic fold in refsim).
// RunCells materializes each distinct trace once, decodes it once at
// the finest block size the batch needs, and derives every coarser
// (trace, block size) stream by folding that ladder
// (trace.FoldLadder — bit-identical to a direct materialization,
// O(runs) per rung instead of one full decode per block size), handing
// the same immutable stream to every cell and worker that needs it;
// Cell.StreamFolded records which cells replayed a fold-derived rung.
//
// The untimed instrumented DEW pass still replays the raw trace through
// the per-access path; its per-configuration results must match the
// stream pass bit for bit — a cell fails if the two ever disagree,
// making every cell an exactness check of the stream fast path before
// the reference comparison even starts.
//
// # Result caching and delta scheduling
//
// With Runner.Cache configured, finished cells are content-addressed
// artifacts too (the store's DRS1 result tier, resultcache.go): each
// cell's key folds the trace identity, the cell axes and the shard
// setting, and RunCells probes it before any stream work — warm cells
// are served whole (statistics, counters and the recorded wall times
// of the run that published them), and only the missing cells build
// streams and simulate. One sampled warm cell per batch is re-simulated
// live and compared field-for-field against its cached copy, so cached
// results stay trustworthy without forfeiting the zero-simulation warm
// path.
//
// # Parallelism
//
// Runner.Workers bounds a worker pool. RunCell spreads the independent
// per-configuration reference passes across it; RunCells spreads whole
// cells (each cell then running its reference passes serially, so the
// machine is not oversubscribed). Result ordering is deterministic
// either way — outputs land in slices indexed by configuration or cell,
// never in completion order, and exactness verification is unaffected
// because every pass replays the same shared stream. Only the wall-time
// fields are scheduling-sensitive: each reference pass is timed
// individually, so RefTime remains the *summed* single-pass cost the
// paper reports, but under Workers > 1 those passes contend for memory
// bandwidth and the sum can drift upward. Benchmarking runs that feed
// Table 3 should therefore use Workers = 1 — the experiments CLI's
// -workers flag defaults to exactly that — while correctness-focused
// runs can use all cores (-workers 0).
//
// # Sharded passes
//
// Workers parallelizes *across* passes; Runner.Shards parallelizes
// *inside* one. With Shards ≥ 2 every cell additionally runs the
// set-sharded parallel DEW pass (core.Sharded): the cell's stream is
// partitioned once per (trace, block size) into a trace.ShardStream —
// shared read-only across cells exactly like the streams — and 2^S
// independent tree passes replay it across goroutines, with a shallow
// pass covering the levels above the shard level. Tree independence
// makes the decomposition exact (a block address walks only the tree
// it is congruent to mod 2^S, and each level is independently the
// exact simulation of its configuration), and the runner enforces it:
// every sharded cell's results are compared bit for bit against the
// instrumented monolithic pass, so a sharded sweep is a continuous
// equivalence proof, not a trust exercise. Cell.ShardTime records the
// parallel pass's wall time next to the single-thread DEWTime;
// Cell.ShardSpeedup is their ratio.
//
// Sharding also parallelizes the reference side of every cell: each
// configuration with at least 2^S sets decomposes into 2^S independent
// sub-caches that replay the same shard substreams the DEW trees do
// (refsim.Sharded; configurations with fewer sets fall back to the
// exact monolithic replay), and every sharded reference replay is
// cross-checked bit-for-bit against the monolithic reference pass.
// Cell.RefShardTime records the summed sharded reference wall time
// next to RefTime. Shards may be ShardsAuto, which sizes each cell's
// fan-out from its own stream statistics (AutoShardsStream) instead of
// a fixed count.
//
// # Write-policy cells
//
// The same stream-sharing and runtime-verification machinery extends
// to the reference simulator's write/alloc axes: a write cell
// (WriteParams, RunWriteCellTrace) replays one kind-preserving stream
// through the write-policy reference engine per configuration and
// cross-checks statistics and memory traffic bit-for-bit against the
// per-access replay — see write.go.
//
// # Engine dispatch
//
// Every timed pass of a cell — DEW stream, DEW sharded, and both
// reference replays — is built and replayed through the engine
// registry's one dispatch seam (engine.TimedRun → engine.Replay); the
// simulators differ only by registered name and spec, so a new engine
// or policy variant needs one registration, not new sweep plumbing.
// Only the untimed instrumented pass talks to the core directly: it
// exists to collect the property counters the engine contract
// deliberately leaves out.
package sweep

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"time"

	"dew/internal/cache"
	"dew/internal/core"
	"dew/internal/engine"
	"dew/internal/pool"
	"dew/internal/refsim"
	"dew/internal/store"
	"dew/internal/trace"
	"dew/internal/workload"
)

// Params identifies one comparison cell: one trace and one
// (associativity, block size) pair over set counts 2^0..2^MaxLogSets.
// This matches one "Assoc 1 & A" column group of the paper's Table 3.
type Params struct {
	// App is the workload model that provides the trace.
	App workload.App
	// Seed makes the trace deterministic.
	Seed uint64
	// Requests is the trace length; 0 means App.DefaultRequests().
	Requests uint64
	// BlockSize and Assoc select the DEW pass parameters.
	BlockSize int
	Assoc     int
	// MaxLogSets bounds the simulated set counts (the paper uses 14).
	MaxLogSets int
}

func (p Params) String() string {
	return fmt.Sprintf("%s B=%d A=1&%d", p.App.Name, p.BlockSize, p.Assoc)
}

// requests resolves the effective trace length.
func (p Params) requests() uint64 {
	if p.Requests != 0 {
		return p.Requests
	}
	return p.App.DefaultRequests()
}

// Cell is the measured outcome of one comparison cell.
type Cell struct {
	Params
	// Trace length actually simulated.
	Requests uint64
	// StreamRuns is the length of the run-compressed block stream both
	// timed sides replayed; Requests/StreamRuns is the compression
	// ratio the stream frontend bought at this block size.
	StreamRuns uint64
	// StreamFolded records the stream's provenance: true when the cell
	// replayed a rung fold-derived from a finer block size's stream
	// (RunCells decodes each trace once at its finest block size),
	// false when the stream was materialized from the trace directly.
	// Fold-derived streams are bit-identical to directly materialized
	// ones, so only the materialization cost — not any result — depends
	// on this.
	StreamFolded bool
	// CacheHit records that the cell's stream (for fold-derived rungs:
	// its trace's ladder base) was loaded from the runner's artifact
	// store — or shared from a concurrent materialization — instead of
	// decoded from the trace; CacheKey is the store key consulted (""
	// when the runner has no cache). Loaded streams are bit-identical
	// to decoded ones, so like StreamFolded this is provenance only.
	CacheHit bool
	CacheKey string

	// ResultCacheHit records that the whole finished cell — results,
	// counters and recorded wall times — was served from the runner's
	// result tier without materializing a stream or simulating
	// anything; ResultCacheKey is the result-store key consulted (""
	// without a cache; set on simulated cells too, naming the entry the
	// cell was published under). WarmVerified marks a batch's sampled
	// warm cell: RunCells additionally re-simulated it live and
	// compared every scheduling-independent field against the cached
	// copy, so cached results stay trustworthy (see Runner.NoWarmCheck).
	ResultCacheHit bool
	ResultCacheKey string
	WarmVerified   bool

	// DEWTime is the wall time of the single DEW pass; RefTime is the
	// summed wall time of the per-configuration reference passes. Both
	// replay the shared materialized stream.
	DEWTime, RefTime time.Duration

	// Shards is the number of trees the sharded DEW pass fanned out
	// across (0 when the runner ran no sharded pass); ShardTime is that
	// pass's wall time, and ShardRuns the total run count of its shard
	// substreams after per-shard re-compression (≤ StreamRuns). The
	// sharded pass replays the same cell and is cross-checked
	// bit-for-bit against the instrumented pass like the stream pass.
	Shards    int
	ShardTime time.Duration
	ShardRuns uint64

	// RefShardTime is the summed wall time of the per-configuration
	// sharded reference replays (refsim over set-substreams), run and
	// cross-checked bit-for-bit against the monolithic reference passes
	// whenever the runner shards; zero otherwise. RefParallel counts
	// the configurations whose sharded replay really decomposed across
	// substreams (those with at least 2^S sets — the rest fall back to
	// the exact monolithic replay and still cross-check).
	RefShardTime time.Duration
	RefParallel  int

	// DEWComparisons and RefComparisons are total tag comparisons
	// (Table 3's right half).
	DEWComparisons, RefComparisons uint64

	// Counters are the DEW pass's property counters (Table 4).
	Counters core.Counters
	// UnoptimizedEvaluations is the property-free node-evaluation bound.
	UnoptimizedEvaluations uint64

	// Results are DEW's per-configuration outcomes, in the engine
	// layer's shared statistics shape.
	Results []engine.Result
	// Verified is the number of configurations whose miss counts were
	// cross-checked against the reference simulator (all of them).
	Verified int
}

// Speedup returns RefTime/DEWTime, the Figure 5 metric.
func (c Cell) Speedup() float64 {
	if c.DEWTime <= 0 {
		return 0
	}
	return float64(c.RefTime) / float64(c.DEWTime)
}

// ComparisonReduction returns the percentage reduction of tag
// comparisons relative to the reference, the Figure 6 metric.
func (c Cell) ComparisonReduction() float64 {
	if c.RefComparisons == 0 {
		return 0
	}
	return 100 * (1 - float64(c.DEWComparisons)/float64(c.RefComparisons))
}

// CompressionRatio returns accesses per stream run — how many raw
// accesses the average replayed stream entry stood for. Folding
// preserves the stream's access count, so the ratio is exact whether
// the cell's stream was decoded directly or fold-derived
// (StreamFolded), without re-counting the raw trace; an empty trace
// yields 0.
func (c Cell) CompressionRatio() float64 {
	if c.StreamRuns == 0 {
		return 0
	}
	return float64(c.Requests) / float64(c.StreamRuns)
}

// ShardSpeedup returns DEWTime/ShardTime — how much faster the sharded
// pass covered the cell than the single-thread stream pass. Zero when
// no sharded pass ran.
func (c Cell) ShardSpeedup() float64 {
	if c.ShardTime <= 0 {
		return 0
	}
	return float64(c.DEWTime) / float64(c.ShardTime)
}

// RefShardSpeedup returns RefTime/RefShardTime — how much faster the
// sharded reference replays covered the cell's configurations than the
// monolithic reference passes. Zero when no sharded reference ran.
func (c Cell) RefShardSpeedup() float64 {
	if c.RefShardTime <= 0 {
		return 0
	}
	return float64(c.RefTime) / float64(c.RefShardTime)
}

// Runner executes comparison cells.
type Runner struct {
	// Logf, when non-nil, receives progress lines. Calls are serialized.
	Logf func(format string, args ...interface{})

	// Workers bounds the worker pool used for the independent passes of
	// a run: the per-configuration reference passes inside RunCell, and
	// whole cells inside RunCells. 0 means GOMAXPROCS; 1 runs serially,
	// which is what timing-faithful Table 3 runs should use (see the
	// package comment).
	Workers int

	// Shards, when at least 2, additionally runs every cell through the
	// set-sharded parallel DEW pass: the cell's stream is partitioned
	// once per (trace, block size) into 2^S substreams (S the shard
	// level, Shards rounded up to a power of two and capped at the
	// cell's MaxLogSets) and replayed by 2^S independent tree passes
	// across GOMAXPROCS goroutines — intra-pass parallelism, where
	// Workers is inter-pass. Sharding also turns on the sharded
	// reference replays: every configuration's refsim pass additionally
	// runs over the set-substreams (Cell.RefShardTime) and is
	// cross-checked bit-for-bit against the monolithic reference pass.
	// The sharded DEW pass's results are verified bit-identical to the
	// instrumented monolithic pass on every cell, and its wall time
	// lands in Cell.ShardTime next to the single-thread DEWTime. 0 or 1
	// disables sharding; ShardsAuto picks a fan-out per cell from the
	// cell's own stream statistics (AutoShardsStream).
	Shards int

	// Cache, when non-nil, is the content-addressed artifact store
	// consulted at two tiers. The result tier first: each cell's key
	// (store.TraceID plus the cell axes and the runner's shard setting;
	// see resultcache.go) is probed before any stream work, and a hit
	// serves the whole finished cell — zero materializations, zero
	// simulations — while a miss simulates and publishes the cell on
	// completion. Then the stream tier: a simulating cell's stream
	// materialization (keyed by store.TraceID plus the block size and
	// kinds flag) loads from disk on a hit and publishes on a miss.
	// Only the raw-trace decode is skipped on a stream hit — the
	// instrumented cross-check pass still replays the raw trace, so a
	// stream-warm cell remains a full exactness proof; a result-warm
	// cell's trustworthiness rests on the sampled live re-check (see
	// NoWarmCheck). Cell.CacheHit/CacheKey and
	// Cell.ResultCacheHit/ResultCacheKey record the provenance.
	Cache *store.Store

	// NoWarmCheck disables the sampled warm check: by default RunCells
	// re-simulates one result-cache hit per batch live and compares it
	// field-for-field against the cached copy, dropping the entry and
	// failing the batch on divergence. Timing-pure warm benchmarks set
	// this to measure cache-hit throughput without one cell's
	// simulation cost.
	NoWarmCheck bool
}

// streamProv carries a stream's provenance (fold-derived? loaded from
// the artifact store?) into the cell it feeds.
type streamProv struct {
	folded   bool
	cacheHit bool
	cacheKey string
}

// materializeStream builds tr's stream at blockSize, consulting the
// runner's artifact store when one is configured.
func (r Runner) materializeStream(ctx context.Context, tr trace.Trace, blockSize int, kinds bool) (*trace.BlockStream, streamProv, error) {
	mat := tr.BlockStream
	if kinds {
		mat = tr.BlockStreamWithKinds
	}
	if r.Cache == nil {
		bs, err := mat(blockSize)
		return bs, streamProv{}, err
	}
	key := store.Key(store.TraceID(tr), blockSize, 0, kinds)
	bs, hit, err := r.Cache.GetOrMaterialize(ctx, key, blockSize, kinds,
		func(context.Context) (*trace.BlockStream, error) { return mat(blockSize) })
	return bs, streamProv{cacheHit: hit, cacheKey: key}, err
}

// shardLog resolves the runner's shard level for a cell via the shared
// trace.ShardLog rounding rule, consulting the cell's stream statistics
// under ShardsAuto. Negative when sharding is off.
func (r Runner) shardLog(maxLogSets int, bs *trace.BlockStream) int {
	count := r.Shards
	if count == ShardsAuto {
		count = AutoShardsStream(bs, maxLogSets, 0)
	}
	return trace.ShardLog(count, maxLogSets)
}

// sharding reports whether the runner runs sharded passes at all.
func (r Runner) sharding() bool { return r.Shards > 1 || r.Shards == ShardsAuto }

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (r Runner) logf(format string, args ...interface{}) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// RunCell materializes the workload trace and its block stream once,
// times one DEW pass against per-configuration reference passes — every
// timed pass replaying the same in-memory stream, so the times measure
// simulation and not trace regeneration or decoding — and verifies
// exactness. It returns an error if any configuration's miss counts
// disagree — which would falsify the simulator, so it is checked on
// every run.
//
// Cancelling ctx stops the cell between passes and between reference
// configurations — the cell's cancellation granularity is the pass, a
// running replay finishes — and returns ctx's error with every pool
// goroutine drained. A panic inside a pooled pass surfaces as a
// *pool.PanicError rather than crashing the process.
func (r Runner) RunCell(ctx context.Context, p Params) (Cell, error) {
	tr := workload.Take(p.App.Generator(p.Seed), int(p.requests()))
	return r.RunCellTrace(ctx, p, tr)
}

// RunCellTrace is RunCell over an explicit in-memory trace (used by
// tests and by trace-file driven tools). With a cache configured the
// result tier is probed first — a hit serves the finished cell without
// materializing a stream or simulating anything — and a simulated cell
// is published on completion. The block stream is materialized here.
func (r Runner) RunCellTrace(ctx context.Context, p Params, tr trace.Trace) (Cell, error) {
	key := ""
	if r.Cache != nil {
		key = r.cellResultKey(store.TraceID(tr), p)
		if cell, ok := r.loadCell(ctx, key, p); ok {
			r.logf("%s: result-cache-hit (%d configs, %d requests, 0 simulations)",
				p, cell.Verified, cell.Requests)
			return cell, nil
		}
	}
	bs, prov, err := r.materializeStream(ctx, tr, p.BlockSize, false)
	if err != nil {
		return Cell{Params: p}, err
	}
	cell, err := r.runCellStream(ctx, p, tr, bs, nil, prov)
	if err == nil && key != "" {
		cell.ResultCacheKey = key
		r.publishCell(ctx, key, cell)
	}
	return cell, err
}

// refStats extracts the full Dinero-style statistics of a reference
// engine replay.
func refStats(e engine.Engine) (refsim.Stats, error) {
	rs, ok := e.(engine.RefStatser)
	if !ok {
		return refsim.Stats{}, fmt.Errorf("sweep: engine %T does not expose reference statistics", e)
	}
	return rs.RefStats(), nil
}

// verifyRef holds one reference pass of a cell to the DEW result for
// its configuration and to two facts every configuration of the cell
// shares: the pass replayed all of the cell's requests, and its
// compulsory misses — a property of the stream alone — equal those of
// the cell's first reference pass.
func verifyRef(cell Cell, res engine.Result, st, first refsim.Stats) error {
	switch {
	case st.Misses != res.Misses:
		return fmt.Errorf("sweep: exactness violation at %v: DEW %d misses, reference %d",
			res.Config, res.Misses, st.Misses)
	case st.Accesses != cell.Requests:
		return fmt.Errorf("sweep: reference pass at %v replayed %d accesses of %d requests",
			res.Config, st.Accesses, cell.Requests)
	case st.CompulsoryMisses != first.CompulsoryMisses:
		return fmt.Errorf("sweep: compulsory-miss divergence at %v: %d, against %d at %v",
			res.Config, st.CompulsoryMisses, first.CompulsoryMisses, cell.Results[0].Config)
	}
	return nil
}

func (r Runner) runCellStream(ctx context.Context, p Params, tr trace.Trace, bs *trace.BlockStream, ss *trace.ShardStream, prov streamProv) (Cell, error) {
	cell := Cell{Params: p, Requests: uint64(len(tr)), StreamRuns: uint64(bs.Len()),
		StreamFolded: prov.folded, CacheHit: prov.cacheHit, CacheKey: prov.cacheKey}
	if bs.BlockSize != p.BlockSize || bs.Accesses != uint64(len(tr)) {
		return cell, fmt.Errorf("sweep: stream (block %d, %d accesses) does not match cell %v over %d requests",
			bs.BlockSize, bs.Accesses, p, len(tr))
	}

	// One DEW pass covers assoc 1 and p.Assoc for every set count.
	spec := engine.Spec{
		MinLogSets: 0, MaxLogSets: p.MaxLogSets,
		Assoc: p.Assoc, BlockSize: p.BlockSize, Policy: cache.FIFO,
	}

	// Timed pass: the counter-free stream fast path over the shared
	// materialized stream — what DEWTime reports.
	fast, dur, err := engine.TimedRun(ctx, "dew", spec, bs, nil)
	if err != nil {
		return cell, err
	}
	cell.DEWTime = dur
	cell.Results = fast.Results()

	// Instrumented pass (untimed): supplies the Table 3/4 counters and
	// doubles as the stream path's exactness check — it replays the raw
	// per-access trace through the core's counted path, and the two
	// paths must agree bit for bit on every configuration.
	dew, err := core.New(core.Options{
		MinLogSets: 0, MaxLogSets: p.MaxLogSets,
		Assoc: p.Assoc, BlockSize: p.BlockSize,
	})
	if err != nil {
		return cell, err
	}
	if err := ctx.Err(); err != nil {
		return cell, err
	}
	if err := dew.Simulate(tr.NewSliceReader()); err != nil {
		return cell, err
	}
	cell.Counters = dew.Counters()
	cell.UnoptimizedEvaluations = dew.UnoptimizedEvaluations()
	cell.DEWComparisons = cell.Counters.TagComparisons
	for i, res := range dew.Results() {
		if engine.Result(res) != cell.Results[i] {
			return cell, fmt.Errorf("sweep: fast-path divergence at %v: stream %+v, instrumented %+v",
				res.Config, cell.Results[i], res)
		}
	}

	// Sharded pass (timed): the intra-pass parallel replay over the
	// partitioned stream, cross-checked bit-for-bit against the
	// instrumented pass exactly like the stream pass above. The
	// partition itself is untimed shared input, like the stream. A
	// caller-supplied partition carries its own resolved level (RunCells
	// resolves ShardsAuto once per shared stream); only a fixed shard
	// count is re-checked against it.
	log := -1
	switch {
	case ss != nil:
		if ss.Source != bs {
			return cell, fmt.Errorf("sweep: shard stream does not partition cell %v's block stream", p)
		}
		if r.Shards != ShardsAuto {
			if want := trace.ShardLog(r.Shards, p.MaxLogSets); want != ss.Log {
				return cell, fmt.Errorf("sweep: shard stream (level %d) does not match cell %v at level %d",
					ss.Log, p, want)
			}
		}
		log = ss.Log
	case r.sharding():
		log = r.shardLog(p.MaxLogSets, bs)
	}
	if log >= 0 {
		if ss == nil {
			var err error
			if ss, err = trace.ShardBlockStream(bs, log); err != nil {
				return cell, err
			}
		}
		sharded, dur, err := engine.TimedRun(ctx, "dew", spec, bs, ss)
		if err != nil {
			return cell, err
		}
		cell.Shards = ss.NumShards()
		cell.ShardRuns = uint64(ss.Runs())
		cell.ShardTime = dur
		for i, res := range sharded.Results() {
			if res != cell.Results[i] {
				return cell, fmt.Errorf("sweep: sharded-pass divergence at %v: sharded %+v, instrumented %+v",
					res.Config, res, cell.Results[i])
			}
		}
	}

	// Reference baseline: one pass per configuration, Dinero-style, all
	// replaying the shared read-only stream across the worker pool.
	// With sharding on, each configuration additionally replays its
	// set-substreams through the sharded reference pass, cross-checked
	// bit-for-bit against the monolithic pass. Outputs are indexed by
	// configuration, so ordering (and therefore every field of the
	// Cell) is deterministic regardless of scheduling; only wall-time
	// contention varies with Workers.
	type refOut struct {
		dur, shardDur time.Duration
		stats         refsim.Stats
		shardStats    refsim.Stats
		parallel      bool
	}
	outs := make([]refOut, len(cell.Results))
	if err := pool.Run(ctx, r.workers(), len(cell.Results), func(i int) error {
		cfg := cell.Results[i].Config
		logSets := bits.Len(uint(cfg.Sets)) - 1
		refSpec := engine.Spec{
			MinLogSets: logSets, MaxLogSets: logSets,
			Assoc: cfg.Assoc, BlockSize: cfg.BlockSize, Policy: cache.FIFO,
		}
		eng, dur, err := engine.TimedRun(ctx, "ref", refSpec, bs, nil)
		if err != nil {
			return err
		}
		outs[i].dur = dur
		if outs[i].stats, err = refStats(eng); err != nil {
			return err
		}
		if ss == nil {
			return nil
		}
		shardEng, shardDur, err := engine.TimedRun(ctx, "ref", refSpec, bs, ss)
		if err != nil {
			return err
		}
		outs[i].shardDur = shardDur
		if outs[i].shardStats, err = refStats(shardEng); err != nil {
			return err
		}
		outs[i].parallel = engine.Parallel(shardEng)
		return nil
	}); err != nil {
		return cell, err
	}

	for i, res := range cell.Results {
		cell.RefTime += outs[i].dur
		cell.RefComparisons += outs[i].stats.TagComparisons
		if err := verifyRef(cell, res, outs[i].stats, outs[0].stats); err != nil {
			return cell, err
		}
		if ss != nil {
			cell.RefShardTime += outs[i].shardDur
			if outs[i].parallel {
				cell.RefParallel++
			}
			if outs[i].shardStats != outs[i].stats {
				return cell, fmt.Errorf("sweep: sharded reference divergence at %v: sharded %+v, monolithic %+v",
					res.Config, outs[i].shardStats, outs[i].stats)
			}
		}
		cell.Verified++
	}
	cacheNote := ""
	if cell.CacheHit {
		cacheNote = ", stream cache-hit"
	}
	if cell.Shards > 0 {
		r.logf("%s: %d requests (%.1fx run-compressed), speedup %.1fx, comparisons -%.1f%%, %d-shard pass %.2fx vs stream, sharded ref %.2fx (%d/%d parallel)%s",
			p, cell.Requests, cell.CompressionRatio(), cell.Speedup(), cell.ComparisonReduction(),
			cell.Shards, cell.ShardSpeedup(), cell.RefShardSpeedup(), cell.RefParallel, cell.Verified, cacheNote)
	} else {
		r.logf("%s: %d requests (%.1fx run-compressed), speedup %.1fx, comparisons -%.1f%%%s",
			p, cell.Requests, cell.CompressionRatio(), cell.Speedup(), cell.ComparisonReduction(), cacheNote)
	}
	return cell, nil
}

// RunCells executes independent cells across the worker pool and returns
// their results in params order. Each distinct trace is materialized
// exactly once up front and decoded into a block stream exactly once —
// at the finest block size any of its cells needs — with every coarser
// (trace, block size) stream fold-derived from that ladder and shared
// read-only by every cell that needs it; each cell then runs its
// reference passes serially (the cells themselves are the unit of
// parallelism here). Traces are deduplicated by (App.Name, Seed,
// Requests) — App.Name is the workload registry's identity (see
// workload.Lookup), so two different generators must not share a name
// within one batch. The first error — e.g. an exactness violation,
// which falsifies everything else — stops further cells from being
// dispatched; cells already in flight finish, and the first error in
// params order is returned. Logf output is serialized by the per-cell
// runner but may interleave across cells.
//
// Cancelling ctx stops dispatching cells (the batch's cancellation
// granularity is the cell; in-flight cells stop at their own pass
// granularity) and returns ctx's error with the pool drained and no
// goroutines left behind. A panic inside a cell surfaces as a
// *pool.PanicError.
func (r Runner) RunCells(ctx context.Context, params []Params) ([]Cell, error) {
	// Materialize shared inputs, each distinct one once, in parallel
	// across the worker pool. Keys deduplicate on the workload
	// identity, not the App struct (which contains function values).
	// References are handed to cells through per-cell slots (released
	// as cells finish); the maps only wire up the sharing here.
	type traceKey struct {
		app      string
		seed     uint64
		requests uint64
	}
	type streamKey struct {
		tk    traceKey
		block int
	}
	var tKeys []traceKey
	tGen := map[traceKey]workload.App{}
	var sKeys []streamKey
	seenS := map[streamKey]bool{}
	for _, p := range params {
		tk := traceKey{p.App.Name, p.Seed, p.requests()}
		if _, ok := tGen[tk]; !ok {
			tGen[tk] = p.App
			tKeys = append(tKeys, tk)
		}
		sk := streamKey{tk, p.BlockSize}
		if !seenS[sk] {
			seenS[sk] = true
			sKeys = append(sKeys, sk)
		}
	}
	trVals := make([]trace.Trace, len(tKeys))
	if err := pool.Run(ctx, r.workers(), len(tKeys), func(i int) error {
		tk := tKeys[i]
		trVals[i] = workload.Take(tGen[tk].Generator(tk.seed), int(tk.requests))
		return nil
	}); err != nil {
		return nil, err
	}
	traces := make(map[traceKey]trace.Trace, len(tKeys))
	for i, tk := range tKeys {
		traces[tk] = trVals[i]
	}

	// Delta scheduling: with a cache configured, probe the result tier
	// per cell before any stream work. Warm cells are served whole from
	// their cached blobs; only the missing cells — plus one sampled
	// warm cell, re-simulated live as a trust check — proceed through
	// the ladder/shard/simulate machinery below. A partially-
	// overlapping sweep therefore builds and replays only its delta,
	// and a fully-warm sweep performs zero simulations.
	cellKeys := make([]string, len(params))
	warm := make([]*Cell, len(params))
	needSim := make([]bool, len(params))
	for i := range needSim {
		needSim[i] = true
	}
	if r.Cache != nil {
		traceIDs := make([]string, len(tKeys))
		if err := pool.Run(ctx, r.workers(), len(tKeys), func(i int) error {
			traceIDs[i] = store.TraceID(trVals[i])
			return nil
		}); err != nil {
			return nil, err
		}
		idByKey := make(map[traceKey]string, len(tKeys))
		for i, tk := range tKeys {
			idByKey[tk] = traceIDs[i]
		}
		var warmIdx []int
		var warmKeys []string
		for i, p := range params {
			key := r.cellResultKey(idByKey[traceKey{p.App.Name, p.Seed, p.requests()}], p)
			cellKeys[i] = key
			if cell, ok := r.loadCell(ctx, key, p); ok {
				warm[i] = &cell
				needSim[i] = false
				warmIdx = append(warmIdx, i)
				warmKeys = append(warmKeys, key)
			}
		}
		if len(warmIdx) > 0 {
			note := ""
			if !r.NoWarmCheck {
				checkIdx := warmIdx[warmCheckPick(warmKeys)]
				needSim[checkIdx] = true
				note = " (1 sampled for live re-verification)"
			}
			r.logf("result cache: %d/%d cells warm%s", len(warmIdx), len(params), note)
		}
	}

	// One raw-trace decode per trace: group the distinct block sizes by
	// trace, decode each trace once at its finest size, and fold the
	// coarser rungs from it (trace.FoldLadder — bit-identical to direct
	// materialization, O(runs) per rung instead of one O(accesses)
	// decode per (trace, block size) key). The ladders build in
	// parallel across traces; foldedBlock marks the rungs that were
	// derived rather than decoded, for Cell.StreamFolded. Only the
	// (trace, block) pairs some simulating cell needs are built —
	// result-warm cells never touch a stream.
	blocksByTrace := make(map[traceKey][]int, len(tKeys))
	seenB := map[streamKey]bool{}
	for i, p := range params {
		if !needSim[i] {
			continue
		}
		sk := streamKey{traceKey{p.App.Name, p.Seed, p.requests()}, p.BlockSize}
		if !seenB[sk] {
			seenB[sk] = true
			blocksByTrace[sk.tk] = append(blocksByTrace[sk.tk], sk.block)
		}
	}
	// With a cache configured, each ladder base is looked up in the
	// artifact store first — a warm batch folds its whole ladder from
	// loaded streams without one raw-trace decode.
	ladders := make([]map[int]*trace.BlockStream, len(tKeys))
	ladderProv := make([]streamProv, len(tKeys))
	if err := pool.Run(ctx, r.workers(), len(tKeys), func(i int) error {
		blocks := blocksByTrace[tKeys[i]]
		if len(blocks) == 0 {
			return nil // every cell of this trace was result-warm
		}
		sort.Ints(blocks)
		base, prov, err := r.materializeStream(ctx, traces[tKeys[i]], blocks[0], false)
		if err != nil {
			return err
		}
		ladderProv[i] = prov
		ladders[i], err = trace.FoldLadder(base, blocks)
		return err
	}); err != nil {
		return nil, err
	}
	streams := make(map[streamKey]*trace.BlockStream, len(sKeys))
	streamProvs := make(map[streamKey]streamProv, len(sKeys))
	for i, tk := range tKeys {
		for b, bs := range ladders[i] {
			sk := streamKey{tk, b}
			streams[sk] = bs
			prov := ladderProv[i]
			prov.folded = b != blocksByTrace[tk][0]
			streamProvs[sk] = prov
		}
	}

	// With sharding on, partition each distinct stream once per shard
	// level the batch needs (cells can differ in MaxLogSets, which caps
	// the level) and share the partitions read-only like the streams.
	type shardKey struct {
		sk  streamKey
		log int
	}
	shardStreams := map[shardKey]*trace.ShardStream{}
	resolvedLog := make([]int, len(params))
	if r.sharding() {
		// Resolve each cell's shard level exactly once — under
		// ShardsAuto the resolution reads the stream's statistics, so
		// memoize it per (stream, MaxLogSets) rather than re-deriving
		// it per cell and again at partition time.
		type levelKey struct {
			sk     streamKey
			maxLog int
		}
		levels := map[levelKey]int{}
		var shKeys []shardKey
		seenSh := map[shardKey]bool{}
		for i, p := range params {
			if !needSim[i] {
				continue
			}
			sk := streamKey{traceKey{p.App.Name, p.Seed, p.requests()}, p.BlockSize}
			lk := levelKey{sk, p.MaxLogSets}
			log, ok := levels[lk]
			if !ok {
				log = r.shardLog(p.MaxLogSets, streams[sk])
				levels[lk] = log
			}
			resolvedLog[i] = log
			if log < 0 {
				continue // auto tuning judged this stream not worth sharding
			}
			k := shardKey{sk, log}
			if !seenSh[k] {
				seenSh[k] = true
				shKeys = append(shKeys, k)
			}
		}
		ssVals := make([]*trace.ShardStream, len(shKeys))
		if err := pool.Run(ctx, r.workers(), len(shKeys), func(i int) (err error) {
			ssVals[i], err = trace.ShardBlockStream(streams[shKeys[i].sk], shKeys[i].log)
			return err
		}); err != nil {
			return nil, err
		}
		for i, k := range shKeys {
			shardStreams[k] = ssVals[i]
		}
	}

	cellTrace := make([]trace.Trace, len(params))
	cellStream := make([]*trace.BlockStream, len(params))
	cellShards := make([]*trace.ShardStream, len(params))
	cellProv := make([]streamProv, len(params))
	var simIdx []int
	for i, p := range params {
		if !needSim[i] {
			continue
		}
		simIdx = append(simIdx, i)
		tk := traceKey{p.App.Name, p.Seed, p.requests()}
		cellTrace[i] = traces[tk]
		cellStream[i] = streams[streamKey{tk, p.BlockSize}]
		cellProv[i] = streamProvs[streamKey{tk, p.BlockSize}]
		if r.sharding() && resolvedLog[i] >= 0 {
			cellShards[i] = shardStreams[shardKey{streamKey{tk, p.BlockSize}, resolvedLog[i]}]
		}
	}

	cells := make([]Cell, len(params))
	// Result-warm cells are served whole; the sampled check cell (its
	// warm slot is also in simIdx) is overwritten below after the live
	// comparison.
	for i := range params {
		if warm[i] != nil {
			cells[i] = *warm[i]
		}
	}

	inner := r
	inner.Workers = 1
	var logMu sync.Mutex
	if r.Logf != nil {
		inner.Logf = func(format string, args ...interface{}) {
			logMu.Lock()
			defer logMu.Unlock()
			r.Logf(format, args...)
		}
	}

	err := pool.Run(ctx, r.workers(), len(simIdx), func(k int) error {
		i := simIdx[k]
		cell, cellErr := inner.runCellStream(ctx, params[i], cellTrace[i], cellStream[i], cellShards[i], cellProv[i])
		// Release this cell's references: a shared trace or stream
		// becomes collectable as soon as its last consuming cell
		// finishes. (Materialization is still up-front, so the batch's
		// full input set is live at the start and memory falls as cells
		// complete.)
		cellTrace[i], cellStream[i], cellShards[i] = nil, nil, nil
		if cellErr != nil {
			return cellErr
		}
		cell.ResultCacheKey = cellKeys[i]
		if warm[i] != nil {
			// The sampled warm check: the live re-simulation must agree
			// with the cached cell on every scheduling-independent
			// field. The returned cell stays the cached one — flagged
			// verified — so warm tables remain byte-identical; on
			// divergence the entry is dropped and the batch fails, as a
			// cache contradicting a live simulation falsifies every
			// other warm cell.
			if err := warmCellDiverges(*warm[i], cell); err != nil {
				r.Cache.DropResult(cellKeys[i])
				return fmt.Errorf("sweep: result cache diverged from live re-simulation at %v (entry dropped): %w",
					params[i], err)
			}
			checked := *warm[i]
			checked.WarmVerified = true
			cells[i] = checked
			return nil
		}
		if cellKeys[i] != "" {
			inner.publishCell(ctx, cellKeys[i], cell)
		}
		cells[i] = cell
		return cellErr
	})
	return cells, err
}

// Table3Params enumerates the paper's Table 3 cells: every app × block
// size {4, 16, 64} × associativity {4, 8, 16}, with the given set-count
// range and trace scaling.
func Table3Params(apps []workload.App, seed uint64, requests uint64, maxLogSets int) []Params {
	var out []Params
	for _, app := range apps {
		for _, b := range []int{4, 16, 64} {
			for _, a := range []int{4, 8, 16} {
				out = append(out, Params{
					App: app, Seed: seed, Requests: requests,
					BlockSize: b, Assoc: a, MaxLogSets: maxLogSets,
				})
			}
		}
	}
	return out
}

// Table4Params enumerates the paper's Table 4 rows: every app at block
// size 4 with associativities 4 and 8.
func Table4Params(apps []workload.App, seed uint64, requests uint64, maxLogSets int) []Params {
	var out []Params
	for _, app := range apps {
		for _, a := range []int{4, 8} {
			out = append(out, Params{
				App: app, Seed: seed, Requests: requests,
				BlockSize: 4, Assoc: a, MaxLogSets: maxLogSets,
			})
		}
	}
	return out
}
