// Package sweep orchestrates the paper's experimental methodology
// (Section 5): for a given trace and (block size, associativity) pair it
// runs one DEW pass — which covers every set count plus the direct-mapped
// configurations — and, as the baseline, one reference-simulator pass per
// configuration, exactly how Dinero IV had to be run. It records wall
// times, tag comparisons and DEW's property counters, and cross-checks
// every configuration's miss count between the two simulators (the
// paper's exactness verification). Runner.RunCells is the one way a
// cell runs; RunSeeds replicates a batch across trace seeds through it.
//
// Dinero IV runs once per configuration, and so does the baseline: the
// cells of one trace and block size (Table 3's 1&4, 1&8 and 1&16) share
// their direct-mapped configurations, so each direct-mapped reference
// pass runs and is timed once per (trace, block size, set count), and
// its statistics and wall time are charged to every cell that pairs
// with it. Every cell still checks each of its configurations against
// reference statistics, so a shared pass is checked against the
// direct-mapped results of every DEW pass that covers it, and a cell's
// RefTime is still the sum of one pass time per configuration.
//
// # Stream materialization and sharing
//
// RunCells materializes each distinct workload trace exactly once, and
// from it one run-compressed trace.BlockStream per block size its cells
// need (see the trace package: consecutive same-block accesses collapse
// into one weighted run). Both timed sides of a cell replay that same
// read-only stream — the timed DEW pass through core.SimulateStream,
// every reference pass through refsim.SimulateStream — so DEWTime and
// RefTime measure pure simulation over identical inputs, with the
// one-off decode-and-shift cost of materialization charged to neither
// side. Run folding is exact on both sides (DEW's Property 2; a
// deterministic fold in refsim). Each trace is decoded once, at the
// finest block size the batch needs, and every coarser (trace, block
// size) stream is folded from that ladder (trace.FoldLadder —
// bit-identical to a direct materialization, O(runs) per rung instead
// of one full decode per block size), the same immutable stream handed
// to every cell that needs it.
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
// path. A multi-seed run is one batch too, so it gets the same check.
//
// # Parallelism
//
// Runner.Workers bounds a worker pool that RunCells spreads stream
// groups across — the cells that replay one block stream, one trace at
// one block size — and each group runs its cells, and each cell its DEW
// and reference passes, serially, so the machine is not oversubscribed.
// Running a group's cells in params order on one worker fixes which
// cell runs and times each shared reference pass, whatever Workers is.
// Each running group holds one kit of recycled engines — a DEW engine
// and a reference engine, built with their arenas for the batch's
// widest pass before any timed pass — taken from a free list of at most
// Workers kits and returned when the group's passes all succeed (a
// failed or cancelled group drops its kit), so a worker allocates its
// arenas once per batch, not once per pass. Result ordering is
// deterministic — cells land in params order, configurations in
// configuration order, never in completion order — and exactness
// verification is unaffected because every pass replays the same shared
// stream. Only the wall-time fields are scheduling-sensitive: each
// reference pass is timed individually, so RefTime remains the *summed*
// single-pass cost the paper reports, but under Workers > 1 concurrent
// groups contend for memory bandwidth and the sum can drift upward.
// Benchmarking runs that feed Table 3 should therefore use Workers = 1
// — the experiments CLI's -workers flag defaults to exactly that —
// while correctness-focused runs can use all cores (-workers 0).
//
// # Sharded passes
//
// Workers parallelizes *across* cells; Runner.Shards parallelizes
// *inside* one pass. With Shards ≥ 2 every cell additionally runs the
// set-sharded parallel DEW pass (the dew engine's SimulateSharded): the
// cell's stream is partitioned once per (trace, block size) into a
// trace.ShardStream — shared read-only across cells exactly like the
// streams — and 2^S
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
// (the ref engine's SimulateSharded, through the engines' one sharded
// pass; configurations with fewer sets, and Random replacement, fall
// back to the exact monolithic replay), and every sharded reference
// replay is cross-checked bit-for-bit against the monolithic reference
// pass.
// Cell.RefShardTime records the summed sharded reference wall time
// next to RefTime; like the monolithic passes, a sharded replay runs
// once per stream group and partition and is charged to every cell
// that pairs with it. Shards may be ShardsAuto, which sizes each cell's
// fan-out from its own stream statistics (AutoShardsStream) instead of
// a fixed count.
//
// # Engine dispatch
//
// Every timed pass of a cell — DEW stream, DEW sharded, and both
// reference replays — is replayed through the engine registry's one
// dispatch seam (engine.TimedRun → engine.Replay); the simulators
// differ only by registered name and spec, so a new engine or policy
// variant needs one registration, not new sweep plumbing. TimedRun
// rebinds the kit's engine to each pass's spec (engine.Rebinder: the
// arenas are capacity, so any narrower pass fits them) and builds a
// fresh one only when a pass outgrows it; rebinding and resetting stay
// outside the timed region, as construction does. Only the untimed
// instrumented pass talks to the core directly, on the timed pass's own
// simulator (engine.Core), reset: it exists to collect the property
// counters the engine contract deliberately leaves out.
package sweep

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
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
	// summed wall time of the per-configuration reference passes, a pass
	// that the cells of one stream group share counted in each of them.
	// Both replay the shared materialized stream.
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
// (RunCells folds coarser rungs from the finest), without re-counting
// the raw trace; an empty trace yields 0.
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

	// Workers bounds the worker pool RunCells spreads whole cells (and
	// their up-front trace, stream and partition builds) across; each
	// cell runs its own passes serially. 0 means GOMAXPROCS; 1 runs
	// serially, which is what timing-faithful Table 3 runs should use
	// (see the package comment).
	Workers int

	// Shards, when at least 2, additionally runs every cell through the
	// set-sharded parallel DEW pass: the cell's stream is partitioned
	// once per (trace, block size) into 2^S substreams (S the shard
	// level, Shards rounded up to a power of two and capped at the
	// cell's MaxLogSets) and replayed by 2^S independent tree passes
	// across GOMAXPROCS goroutines — intra-pass parallelism, where
	// Workers is inter-cell. Sharding also turns on the sharded
	// reference replays: every configuration's refsim pass additionally
	// runs over the set-substreams (Cell.RefShardTime) and is
	// cross-checked bit-for-bit against the monolithic reference pass.
	// The sharded DEW pass's results are verified bit-identical to the
	// instrumented monolithic pass on every cell, and its wall time
	// lands in Cell.ShardTime next to the single-thread DEWTime. 0 or 1
	// disables sharding; ShardsAuto picks a fan-out per cell from the
	// cell's own stream statistics (AutoShardsStream).
	Shards int

	// Cache, when non-nil, is the content-addressed result store: each
	// cell's key (store.TraceID plus the cell axes and the runner's
	// shard setting; see resultcache.go) is probed before any stream
	// work, and a hit serves the whole finished cell — zero
	// materializations, zero simulations — while a miss simulates and
	// publishes the cell on completion. A result-warm cell's
	// trustworthiness rests on the sampled live re-check (see
	// NoWarmCheck). Cell.ResultCacheHit/ResultCacheKey record the
	// provenance.
	Cache *store.Store

	// NoWarmCheck disables the sampled warm check: by default RunCells
	// re-simulates one result-cache hit per batch live and compares it
	// field-for-field against the cached copy, dropping the entry and
	// failing the batch on divergence. Timing-pure warm benchmarks set
	// this to measure cache-hit throughput without one cell's
	// simulation cost.
	NoWarmCheck bool

	// onRefPass, when non-nil, is called for every reference replay a
	// cell runs live rather than reusing from its stream group; tests
	// count passes through it. Calls may be concurrent.
	onRefPass func(cfg cache.Config, sharded bool)
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

// kit is one worker's recycled engines. The DEW engine serves a cell's
// timed stream pass, its instrumented pass (on the same core simulator,
// reset) and its sharded pass; the reference engine serves every
// reference pass. Each pass rebinds the engine the previous pass left
// (engine.TimedRun), so the arenas are allocated when the kit is built
// and again only when a pass does not fit them (a cell over another
// set-count range), instead of once per pass.
type kit struct {
	dew, ref engine.Engine
}

// newKit returns a kit whose engines are built for the widest pass of a
// batch — 2^maxLog sets at assoc ways — so their arenas fit every later
// pass, whichever cell comes first. The arenas are built and written
// here (engine.Prepare), outside every timed region, so the first cell
// a kit serves is timed like the rest. An invalid widest spec leaves a
// slot empty; the first pass then builds its own engine and reports the
// error.
func newKit(maxLog, assoc int) *kit {
	return &kit{
		dew: prepared("dew", engine.Spec{MaxLogSets: maxLog, Assoc: assoc, BlockSize: 1, Policy: cache.FIFO}),
		ref: prepared("ref", engine.Spec{MinLogSets: maxLog, MaxLogSets: maxLog, Assoc: assoc, BlockSize: 1, Policy: cache.FIFO}),
	}
}

// prepared builds the named engine with its arenas (engine.Prepare), or
// returns nil when spec is invalid.
func prepared(name string, spec engine.Spec) engine.Engine {
	e, err := engine.New(name, spec)
	if err == nil {
		err = engine.Prepare(e)
	}
	if err != nil {
		return nil
	}
	return e
}

// refKey names one reference replay of a stream group's block stream:
// the configuration, and the shard partition replayed (nil for the
// monolithic pass).
type refKey struct {
	cfg cache.Config
	ss  *trace.ShardStream
}

// refPass is one finished reference replay: its statistics, its wall
// time, and whether a sharded replay really decomposed across
// substreams.
type refPass struct {
	st       refsim.Stats
	dur      time.Duration
	parallel bool
}

// refRun returns the reference replay of cfg over bs, or over its
// partition ss when ss is non-nil. The first cell of a stream group
// that needs it runs and times it on the kit's reference engine and
// records it in passes; later cells of the group reuse the record, as
// Dinero IV would be run once per configuration.
func (r Runner) refRun(ctx context.Context, k *kit, passes map[refKey]refPass, cfg cache.Config, bs *trace.BlockStream, ss *trace.ShardStream) (refPass, error) {
	key := refKey{cfg, ss}
	if p, ok := passes[key]; ok {
		return p, nil
	}
	logSets := bits.Len(uint(cfg.Sets)) - 1
	spec := engine.Spec{
		MinLogSets: logSets, MaxLogSets: logSets,
		Assoc: cfg.Assoc, BlockSize: cfg.BlockSize, Policy: cache.FIFO,
	}
	eng, dur, err := engine.TimedRun(ctx, k.ref, "ref", spec, bs, ss)
	if err != nil {
		return refPass{}, err
	}
	k.ref = eng
	st, err := refStats(eng)
	if err != nil {
		return refPass{}, err
	}
	if r.onRefPass != nil {
		r.onRefPass(cfg, ss != nil)
	}
	p := refPass{st: st, dur: dur, parallel: ss != nil && engine.Parallel(eng)}
	passes[key] = p
	return p, nil
}

// runCellStream simulates and verifies one cell on the worker's kit
// over the shared inputs RunCells built for it: the raw trace, its block
// stream at the cell's block size, and — when the cell is sharded — that
// stream's partition at the cell's resolved shard level (nil otherwise).
// passes holds the reference replays earlier cells of the stream group
// ran (see refRun). Every pass runs serially; cancelling ctx stops the
// cell between passes. On error the kit's engines are in an undefined
// state and the caller must drop it.
func (r Runner) runCellStream(ctx context.Context, k *kit, passes map[refKey]refPass, p Params, tr trace.Trace, bs *trace.BlockStream, ss *trace.ShardStream) (Cell, error) {
	cell := Cell{Params: p, Requests: uint64(len(tr)), StreamRuns: uint64(bs.Len())}
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
	fast, dur, err := engine.TimedRun(ctx, k.dew, "dew", spec, bs, nil)
	if err != nil {
		return cell, err
	}
	k.dew = fast
	cell.DEWTime = dur
	cell.Results = fast.Results()

	// Instrumented pass (untimed): supplies the Table 3/4 counters and
	// doubles as the stream path's exactness check — it replays the raw
	// per-access trace through the core's counted path on the timed
	// pass's simulator, reset, and the two paths must agree bit for bit
	// on every configuration.
	dew := engine.Core(fast)
	if dew == nil {
		return cell, fmt.Errorf("sweep: engine %T exposes no DEW simulator", fast)
	}
	if err := ctx.Err(); err != nil {
		return cell, err
	}
	dew.Reset()
	for _, a := range tr {
		dew.Access(a)
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
	// partition itself is untimed shared input, like the stream.
	if ss != nil {
		sharded, dur, err := engine.TimedRun(ctx, k.dew, "dew", spec, bs, ss)
		if err != nil {
			return cell, err
		}
		k.dew = sharded
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

	// Reference baseline: one pass per configuration, Dinero-style, each
	// replaying the shared read-only stream and verified as it finishes.
	// A configuration another cell of the stream group has replayed
	// already (Table 3's direct-mapped ones) reuses that pass and its
	// wall time. With sharding on, each configuration additionally
	// replays its set-substreams through the sharded reference pass,
	// cross-checked bit-for-bit against the monolithic pass.
	var first refsim.Stats
	for i, res := range cell.Results {
		mono, err := r.refRun(ctx, k, passes, res.Config, bs, nil)
		if err != nil {
			return cell, err
		}
		if i == 0 {
			first = mono.st
		}
		cell.RefTime += mono.dur
		cell.RefComparisons += mono.st.TagComparisons
		if err := verifyRef(cell, res, mono.st, first); err != nil {
			return cell, err
		}
		if ss != nil {
			sharded, err := r.refRun(ctx, k, passes, res.Config, bs, ss)
			if err != nil {
				return cell, err
			}
			if sharded.st != mono.st {
				return cell, fmt.Errorf("sweep: sharded reference divergence at %v: sharded %+v, monolithic %+v",
					res.Config, sharded.st, mono.st)
			}
			cell.RefShardTime += sharded.dur
			if sharded.parallel {
				cell.RefParallel++
			}
		}
		cell.Verified++
	}
	if cell.Shards > 0 {
		r.logf("%s: %d requests (%.1fx run-compressed), speedup %.1fx, comparisons -%.1f%%, %d-shard pass %.2fx vs stream, sharded ref %.2fx (%d/%d parallel)",
			p, cell.Requests, cell.CompressionRatio(), cell.Speedup(), cell.ComparisonReduction(),
			cell.Shards, cell.ShardSpeedup(), cell.RefShardSpeedup(), cell.RefParallel, cell.Verified)
	} else {
		r.logf("%s: %d requests (%.1fx run-compressed), speedup %.1fx, comparisons -%.1f%%",
			p, cell.Requests, cell.CompressionRatio(), cell.Speedup(), cell.ComparisonReduction())
	}
	return cell, nil
}

// RunCells runs comparison cells across the worker pool and returns
// their results in params order; it is the only way a cell runs. Each
// distinct trace is materialized exactly once up front and decoded into
// a block stream exactly once — at the finest block size any of its
// cells needs — with every coarser (trace, block size) stream
// fold-derived from that ladder and shared read-only by every cell that
// needs it. The cells that replay one stream form a stream group, the
// unit of parallelism: a group's cells run serially in params order on
// one worker, and each reference configuration the group needs is
// replayed once. Traces are deduplicated by (App.Name, Seed, Requests)
// — App.Name is the workload registry's identity (see workload.Lookup),
// so two different generators must not share a name within one batch.
// The first error — e.g. an exactness violation, which falsifies
// everything else — stops the failing group and further groups from
// being dispatched; groups already in flight finish, and the error of
// the earliest failing group (groups are ordered by their first cell)
// is returned. Logf calls are serialized but may interleave across
// groups.
//
// Cancelling ctx stops dispatching groups and stops a running group at
// its next pass, and returns ctx's error with the pool drained and no
// goroutines left behind. A panic inside a cell surfaces as a
// *pool.PanicError.
func (r Runner) RunCells(ctx context.Context, params []Params) ([]Cell, error) {
	if r.Logf != nil {
		logf := r.Logf
		var mu sync.Mutex
		r.Logf = func(format string, args ...interface{}) {
			mu.Lock()
			defer mu.Unlock()
			logf(format, args...)
		}
	}

	// Materialize each distinct trace once, in parallel across the
	// worker pool. Traces deduplicate on the workload identity, not the
	// App struct (which contains function values); traceOf maps every
	// cell to its trace.
	type traceKey struct {
		app      string
		seed     uint64
		requests uint64
	}
	index := map[traceKey]int{}
	var gens []Params
	traceOf := make([]int, len(params))
	for i, p := range params {
		tk := traceKey{p.App.Name, p.Seed, p.requests()}
		t, ok := index[tk]
		if !ok {
			t = len(gens)
			index[tk] = t
			gens = append(gens, p)
		}
		traceOf[i] = t
	}
	traces := make([]trace.Trace, len(gens))
	if err := pool.Run(ctx, r.workers(), len(gens), func(t int) error {
		traces[t] = workload.Take(gens[t].App.Generator(gens[t].Seed), int(gens[t].requests()))
		return nil
	}); err != nil {
		return nil, err
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
	checkIdx := -1
	var traceIDs []string
	if r.Cache != nil {
		traceIDs = make([]string, len(traces))
		if err := pool.Run(ctx, r.workers(), len(traces), func(t int) error {
			traceIDs[t] = store.TraceID(traces[t])
			return nil
		}); err != nil {
			return nil, err
		}
		var warmIdx []int
		var warmKeys []string
		for i, p := range params {
			cellKeys[i] = r.cellResultKey(traceIDs[traceOf[i]], p)
			if cell, ok := r.loadCell(ctx, cellKeys[i], p); ok {
				warm[i] = &cell
				warmIdx = append(warmIdx, i)
				warmKeys = append(warmKeys, cellKeys[i])
			}
		}
		if len(warmIdx) > 0 {
			note := ""
			if !r.NoWarmCheck {
				checkIdx = warmIdx[store.WarmCheckPick(warmKeys)]
				note = " (1 sampled for live re-verification)"
			}
			r.logf("result cache: %d/%d cells warm%s", len(warmIdx), len(params), note)
		}
	}
	var simIdx []int
	for i := range params {
		if warm[i] == nil || i == checkIdx {
			simIdx = append(simIdx, i)
		}
	}

	// One raw-trace decode per trace: collect the distinct block sizes
	// the simulating cells need per trace, decode each trace once at its
	// finest size and fold the coarser rungs from it (trace.FoldLadder —
	// bit-identical to direct materialization, O(runs) per rung instead
	// of one O(accesses) decode per (trace, block size)). Result-warm
	// cells never touch a stream.
	blocks := make([][]int, len(traces))
	for _, i := range simIdx {
		if t, b := traceOf[i], params[i].BlockSize; !slices.Contains(blocks[t], b) {
			blocks[t] = append(blocks[t], b)
		}
	}
	ladders := make([]map[int]*trace.BlockStream, len(traces))
	if err := pool.Run(ctx, r.workers(), len(traces), func(t int) error {
		if len(blocks[t]) == 0 {
			return nil // every cell of this trace was result-warm
		}
		base, err := traces[t].BlockStream(slices.Min(blocks[t]))
		if err != nil {
			return err
		}
		ladders[t], err = trace.FoldLadder(base, blocks[t])
		return err
	}); err != nil {
		return nil, err
	}

	cellTrace := make([]trace.Trace, len(params))
	cellStream := make([]*trace.BlockStream, len(params))
	cellShards := make([]*trace.ShardStream, len(params))
	for _, i := range simIdx {
		cellTrace[i] = traces[traceOf[i]]
		cellStream[i] = ladders[traceOf[i]][params[i].BlockSize]
	}

	// With sharding on, resolve each cell's shard level once per
	// (stream, MaxLogSets) — under ShardsAuto that reads the stream's
	// statistics, and MaxLogSets caps the level — then partition each
	// distinct (stream, level) once and share it read-only like the
	// streams.
	if r.sharding() {
		type levelKey struct {
			bs     *trace.BlockStream
			maxLog int
		}
		type shardKey struct {
			bs  *trace.BlockStream
			log int
		}
		levels := map[levelKey]int{}
		slot := map[shardKey]int{}
		var keys []shardKey
		cellSlot := make([]int, len(params))
		for _, i := range simIdx {
			lk := levelKey{cellStream[i], params[i].MaxLogSets}
			log, ok := levels[lk]
			if !ok {
				log = r.shardLog(lk.maxLog, lk.bs)
				levels[lk] = log
			}
			cellSlot[i] = -1
			if log < 0 {
				continue // auto tuning judged this stream not worth sharding
			}
			k := shardKey{lk.bs, log}
			s, ok := slot[k]
			if !ok {
				s = len(keys)
				slot[k] = s
				keys = append(keys, k)
			}
			cellSlot[i] = s
		}
		parts := make([]*trace.ShardStream, len(keys))
		if err := pool.Run(ctx, r.workers(), len(keys), func(s int) (err error) {
			parts[s], err = trace.ShardBlockStream(keys[s].bs, keys[s].log)
			return err
		}); err != nil {
			return nil, err
		}
		for _, i := range simIdx {
			if cellSlot[i] >= 0 {
				cellShards[i] = parts[cellSlot[i]]
			}
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
	// Stream groups: the simulating cells that replay one block stream —
	// one trace at one block size — in params order. A group is the unit
	// of dispatch: its cells run one after another on one kit, and each
	// reference configuration is replayed once per group (refRun), so
	// which cell runs and times a shared pass depends on params order
	// alone, never on Workers.
	groupOf := map[*trace.BlockStream]int{}
	var groups [][]int
	for _, i := range simIdx {
		g, ok := groupOf[cellStream[i]]
		if !ok {
			g = len(groups)
			groupOf[cellStream[i]] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}

	// runCell runs cell i on k and files its outcome: a simulated cell
	// is published, the sampled warm cell compared with its cached copy.
	runCell := func(k *kit, passes map[refKey]refPass, i int) error {
		cell, err := r.runCellStream(ctx, k, passes, params[i], cellTrace[i], cellStream[i], cellShards[i])
		// Release this cell's references: a shared trace or stream
		// becomes collectable as soon as its last consuming cell
		// finishes. (Materialization is still up-front, so the batch's
		// full input set is live at the start and memory falls as cells
		// complete.)
		cellTrace[i], cellStream[i], cellShards[i] = nil, nil, nil
		if err != nil {
			return err
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
			cells[i].WarmVerified = true
			return nil
		}
		if cellKeys[i] != "" {
			r.publishCell(ctx, cellKeys[i], cell)
		}
		cells[i] = cell
		return nil
	}

	// The kits' free list: at most Workers groups run at once, so it
	// never holds more than Workers kits. A group takes one (or starts a
	// new one, sized for the batch's widest pass) and returns it only
	// when every pass of every cell succeeded.
	wideLog, wideAssoc := 0, 1
	for _, i := range simIdx {
		wideLog, wideAssoc = max(wideLog, params[i].MaxLogSets), max(wideAssoc, params[i].Assoc)
	}
	kits := make(chan *kit, r.workers())
	err := pool.Run(ctx, r.workers(), len(groups), func(g int) error {
		var k *kit
		select {
		case k = <-kits:
		default:
			k = newKit(wideLog, wideAssoc)
		}
		passes := map[refKey]refPass{}
		for _, i := range groups[g] {
			if err := runCell(k, passes, i); err != nil {
				return err
			}
		}
		kits <- k
		return nil
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
