// Package dew is a from-scratch Go reproduction of "DEW: A Fast Level 1
// Cache Simulation Approach for Embedded Processors with FIFO Replacement
// Policy" (Haque, Peddersen, Janapsatya, Parameswaran — DATE 2010).
//
// The library simulates many level-1 cache configurations exactly, in a
// single pass over a memory-address trace, for caches using the FIFO
// replacement policy. See README.md for the architecture overview and
// package map. The root package carries the repository-wide benchmark
// harness (bench_test.go), one benchmark per table and figure of the
// paper's evaluation.
//
// # Batching, streams and parallelism
//
// The pipeline moves accesses in bulk end to end. Every trace source —
// the in-memory trace, the .din text and DTB1 binary decoders, the
// workload generator stream — implements trace.BatchReader, delivering
// trace.DefaultBatchSize accesses per call; trace.Batch adapts any plain
// Reader.
//
// Above batching sits the columnar stream frontend: trace.BlockStream
// materializes a trace into run-length-compressed columns (block IDs
// plus run weights, consecutive same-block accesses collapsed). The
// trace is decoded exactly once, at the finest block size a run needs;
// every coarser block size is fold-derived from that stream
// (trace.FoldBlockStream / FoldLadder: halve every run ID and merge the
// now-adjacent equal-ID runs — O(runs) per doubling, bit-identical to a
// direct materialization at the coarser size, uint32 run-overflow
// splits included). A materialized or folded stream is immutable and
// shared — the sweep and explore layers hand one stream to every
// simulator pass, worker and reference replay that needs that block
// size, so the per-access decode and shift work is paid once per run,
// not once per pass and not even once per block size.
// Replaying weighted runs is exact: a repeated block address is a
// most-recently-accessed hit in every configuration containing it
// (Property 2 in the DEW core, same-block pruning in the LRU tree, a
// plain hit in the reference simulator), and such hits change no
// replacement state, so run weights fold arithmetically into the access
// counters.
//
// On the consuming side core.Simulator offers two equivalent paths
// with different instrumentation: the instrumented Access/Simulate path
// that maintains the full Table 3/4 counter set, and the counter-free
// AccessRuns/SimulateStream stream path, which consumes block IDs
// directly — no per-access struct loads or shifts — and sheds the
// wave-pointer and MRE bookkeeping (work-saving state, not result
// state, reset to a sound "unknown" afterwards). Both paths are
// bit-identical in results, verified on every sweep cell and fuzzed
// against each other (FuzzStreamEquivalence; ≥2× the seed's
// single-access throughput on the sequential-fetch workloads, the
// trajectory recorded in BENCH_core.json by scripts/bench.sh). lrutree
// mirrors the same instrumented/stream split for the LRU tree.
//
// Independent passes parallelize above the core: sweep.Runner.Workers
// spreads stream groups — the cells that replay one trace (one seed's,
// under -seeds) at one block size and share its direct-mapped
// reference passes — across a worker pool with deterministic result
// ordering, each group running its cells' passes serially, and
// package explore does the same for design-space DEW
// passes — exactness verification is unaffected because every pass
// replays the same materialized read-only stream; only wall times are
// scheduling-sensitive (use one worker for timing-faithful Table 3
// runs).
//
// One pass also parallelizes *internally*, and exactly so, via set
// sharding: below a shard level S the simulation tree is a forest of
// 2^S trees that never share a node (a block address b walks only the
// tree b mod 2^S), and every level of a pass is independently the exact
// simulation of its own configuration. trace.ShardStream partitions a
// block stream once into 2^S re-run-compressed substreams, and
// core.Sharded (mirrored by lrutree.Sharded) replays them — one shallow
// pass over the levels above S plus one compact tree pass per shard,
// fanned across goroutines — stitching per-level miss tables back into
// results bit-identical to the monolithic pass. refsim.Sharded does the
// same for the reference simulator: a configuration with 2^L sets
// (L ≥ S) is the disjoint union of 2^S sub-caches, each replaying its
// substream independently under FIFO/LRU (Random, whose replacement
// stream is global, falls back to the exact monolithic replay).
// sweep.Runner.Shards cross-checks both identities — sharded DEW
// against the instrumented pass, sharded reference against the
// monolithic reference — on every cell; the -shards CLI flag exposes
// sharding in dewsim, refsim, experiments and explore, with 0 = auto
// (per-cell from stream statistics in the sweep, see
// sweep.AutoShardsStream; GOMAXPROCS elsewhere). Simulator.Reset (all
// three simulators) reuses the arena allocations across repeated
// passes, so benchmark iterations, sweep cells and per-shard replays
// run allocation-free in steady state.
//
// # Pipeline architecture: result cache? → decode once → fold → shard → engine → stitch
//
// A sharded run never materializes the raw trace, never holds the
// whole run-compressed stream and never walks the trace twice. The
// span pipeline (trace.StreamSpans / StreamDinSpans / StreamFileSpans,
// below) decodes the trace in chunks — for .din text the decode itself
// is chunk-parallel, the byte stream cut at line boundaries and parsed
// by workers — run-compresses every chunk in parallel, and emits the
// stream as bounded spans; each span is split into its 2^S shard
// substreams by trace.ShardBlockStreamInto (ShardBlockStream's fill
// rule, one O(runs) pass into a partition reused across spans) and
// replayed with SimulateSharded (engine.SpanLadder). The sharded
// passes accumulate across calls, and a shard run cut by a span
// boundary replays exactly like the merged run, so the results are
// bit-identical to one replay of the whole stream's partition
// (FuzzIngestShards checks that against the whole partition, the
// monolithic replay and per-access refsim), and every downstream
// exactness argument carries over unchanged.
//
// The block-size axis of a design space rides on that single decode:
// explore.Run and dewsim decode the trace once at the finest block
// size and fold-derive every coarser rung (the incremental
// trace.LadderFolder on the span pipeline, trace.FoldLadder on a
// materialized stream), and sweep.RunCells shares one folded ladder
// per trace across its cells — every frontend reads the raw trace
// exactly once per run no matter how many block sizes the space spans
// (explore records the provenance in explore.Result.Decodes/Folds).
//
// # The streaming tier: pipelined replay in bounded memory
//
// For traces too large to materialize — or whenever decode latency
// should overlap simulation — the same pipeline runs span by span:
// trace.StreamSpans (and StreamDinSpans / StreamFileSpans) delivers
// the run-compressed stream as a bounded, backpressured channel of
// spans, each span a self-contained BlockStream slice with the exact
// boundary-merge semantics applied where chunks meet, so the
// concatenation of the spans is bit-identical — run splits, kind
// channel and uint32 overflow handling included — to the materialized
// stream (FuzzSpanEquivalence holds the two shapes together). The
// pipeline sizes its spans, decode chunks and in-flight chunk count
// from SpanOptions.MemBytes, a working-set budget rather than an
// allocator cap (ResidentBound reports the resolved figure; the replay
// benchmarks record it as peak_resident_bytes). Every buffer it
// allocates has one owner at a time and returns to a free list bounded
// by those same counts once its last reader is done — an input buffer
// after its chunk is compressed, a run chunk after the stitch, a span
// after the consumer's StreamPipeline.Release — so the heap tracks the
// live working set instead of its garbage; a consumer that never
// releases keeps every span it received. The pipeline overlaps the
// chunk-parallel decode with the consumer and honours context
// cancellation. The
// incremental trace.LadderFolder folds each arriving span to every
// rung of a block-size ladder on the fly, so the whole design space
// still rides one decode. One span-ladder driver (engine.SpanLadder)
// runs every streamed and sharded replay in dewsim, refsim and explore:
// it folds each span, then replays the rungs concurrently, each rung's
// engines in order, so every engine still accumulates its spans in
// order through the same SimulateStream seam, bit-identical to the
// phased materialize-then-replay path. dewsim always replays this way,
// -stream-mem BYTES setting the span budget (0 =
// trace.DefaultSpanMemBytes). refsim and explore expose the tier as
// -stream-mem BYTES (0 = refsim's per-access replay or explore's
// materialized schedule for an unsharded run; a -shards run always
// streams, at trace.DefaultSpanMemBytes unless -stream-mem sets its
// budget). Provenance records the mode and the enforced bound end to end
// (explore.Result.Streamed / StreamPeakBytes, the CLI mode lines).
// BenchmarkReplayStreamed vs BenchmarkReplayMaterialized tracks the
// overlap's speedup (speedup_streamed_over_phased) in BENCH_core.json.
//
// # Kind-preserving streams: write-policy and energy axes
//
// The stream's run compression drops request kinds by default — no
// replacement policy consults them — but the pipeline can carry them:
// trace.MaterializeBlockStreamWithKinds and SpanOptions.Kinds
// populate an optional Kinds column (trace.KindRun: per-kind weights
// plus the leading-store count and first non-store kind of each run)
// whose ID and run columns are bit-identical to the kind-free stream,
// and every stage — fold, shard, the span stitcher with its boundary
// merges and uint32 overflow splits — preserves it exactly (fuzzed
// alongside the kind-free invariants). A write-policy reference replay
// (refsim.NewSim / NewShardedSim, the write-back/write-through ×
// write-allocate/no-write-allocate axes) folds each run from its
// KindRun record in O(1): a run is resident-at-head, an installing
// miss, or a bypassing miss (no-write-allocate leading stores), and in
// each shape the per-kind statistics, dirty-bit state and memory
// traffic are arithmetic in the weights — bit-identical, per
// statistic and per traffic counter, to expanding the run per access
// (equivalence- and fuzz-tested over every policy combination). The
// same channel feeds the energy model's read/write split: per-kind
// totals are a trace property (every configuration sees the same
// request mix), so explore -kinds prices the store share of the whole
// design space from one stream (energy.TotalSplit / RankSplit) with no
// per-configuration kind bookkeeping. BenchmarkRefStreamWrite vs
// BenchmarkRefAccessWrite tracks the stream-over-per-access speedup
// and the kind channel's bytes-per-access footprint in BENCH_core.json.
//
// # The result store: zero-decode, zero-simulation warm paths
//
// Finished simulations sit behind an optional content-addressed result
// store (package store): a completed pass's counter tables are
// published as a DRS1 blob (a uvarint column codec, CRC-32-sealed, the
// engine name and config axes echoed inside the blob and verified on
// load), keyed by store.ResultKey — the SHA-256 of the stream identity
// (store.Key: the trace's content identity plus the block size and
// kind flag) × the engine name × the full config-axis string from
// engine.Spec.CacheKey, so any axis
// change (sets range, associativity, block size, policy, write axes)
// is a different key, while scheduling knobs like worker count are
// not. Two planners schedule deltas against it: engine.Plan, the one
// probe/verify/publish site for engine passes (dewsim, refsim's
// streamed path and both explore schedules), and sweep.RunCells for
// the sweep's cell records. Each probes the result tier per pass or
// cell first, simulates only the missing ones, and publishes on
// completion — a fully-warm run performs zero engine simulations and
// zero trace decodes and emits byte-identical tables (recorded wall
// times ride along as cached scalars). engine.Plan stores one record
// per pass for every tool, so a pass dewsim published answers warm in
// explore and the reverse. Warm entries are cross-checked against one
// sampled live re-simulation per run (Plan.WarmCheck, or
// Runner/Request.NoWarmCheck to opt out), and provenance is recorded
// end to end (Cell.ResultCacheHit, Result.CellsSimulated/CellsCached).
// Entries are written atomically (temp file + rename), evicted
// least-recently-used under one MaxBytes cap, and verified on load: a
// corrupt or truncated entry is quarantined and the pass re-simulated
// transparently; `dew cache stats|gc|clear` maintains the directory.
// Streams are never stored: any pass that must simulate decodes the
// trace again, which the chunk-parallel decode overlapped with the
// replay makes cheaper than loading a serialized stream.
// explore.Run (Request.Cache / SourceID) and the sweep runner
// (sweep.Runner.Cache) consult the store before decoding or
// simulating; the CLIs expose it as -cache DIR (or DEW_CACHE).
// BenchmarkExploreWarm vs BenchmarkExploreCold and BenchmarkSweepWarm
// vs BenchmarkSweepCold track the warm-over-cold speedups and the warm
// cell-serve throughput in BENCH_core.json.
//
// Simulation itself runs behind the engine seam: package engine wraps
// the three simulators (dew, lrutree, ref) in one interface —
// SimulateStream / SimulateSharded / Reset / Results — resolved by
// name from a registry. The sweep, explore and cli layers each drive
// every pass through a single engine-dispatch site, so registering a
// new simulator or policy variant makes it drivable everywhere with no
// new plumbing. Engines stitch their sharded replays back into
// results bit-identical to the monolithic ones; the design-space
// layers verify that identity at runtime rather than assume it.
package dew
