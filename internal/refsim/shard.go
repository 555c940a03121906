package refsim

import (
	"context"
	"fmt"
	"runtime"

	"dew/internal/cache"
	"dew/internal/pool"
	"dew/internal/trace"
)

// Sharded is one reference simulation decomposed for intra-pass
// parallelism at shard level S, the refsim counterpart of core.Sharded:
// a configuration with 2^L sets (L ≥ S) is the disjoint union of 2^S
// sub-caches — sub-cache t holds exactly the sets whose index is
// congruent to t mod 2^S — and shard t of a trace.ShardStream carries
// exactly the accesses that touch sub-cache t, in order. Each sub-cache
// therefore replays its own substream on its own goroutine as a plain
// Simulator with 2^(L-S) sets at block size B·2^S: with the shard's IDs
// pre-shifted by S (see trace.ShardStream), a shifted ID sid indexes
// sub-set sid mod 2^(L-S) and carries tag sid >> (L-S) — precisely the
// set and tag the monolithic simulator derives from the parent ID.
//
// The decomposition is exact for FIFO and LRU, whose replacement state
// is strictly per-set: every statistic the stream replay maintains
// (Accesses, Misses, CompulsoryMisses, Evictions, TagComparisons) is a
// sum of per-set contributions, so summing the sub-simulators
// reproduces the monolithic pass bit for bit. cache.Random shares one
// deterministic replacement stream across all sets, so splitting the
// replay would reorder its draws; Random configurations (and those with
// fewer than 2^S sets, where sets do not decompose along shard lines)
// fall back to replaying the parent stream monolithically — Sharded
// reports which way it went via Parallel.
type Sharded struct {
	cfg     cache.Config
	policy  cache.Policy
	log     int
	workers int

	// subs holds the 2^S sub-simulators of the parallel decomposition;
	// nil when the pass falls back to the monolithic replay.
	subs []*Simulator
	// whole is the fallback monolithic simulator; nil when subs is set.
	whole *Simulator

	stats   Stats
	traffic Traffic
}

// NewSharded builds a sharded reference pass for the configuration and
// policy at shard level log. workers bounds the goroutines replaying
// substreams; 0 means GOMAXPROCS. Configurations with at least 2^log
// sets under FIFO or LRU replay shard substreams in parallel; anything
// else keeps the exact monolithic replay as a fallback (see the type
// comment).
func NewSharded(cfg cache.Config, policy cache.Policy, log, workers int) (*Sharded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if log < 0 {
		return nil, fmt.Errorf("refsim: negative shard level %d", log)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sh := &Sharded{cfg: cfg, policy: policy, log: log, workers: workers}
	if policy != cache.Random && log <= 30 && cfg.Sets>>uint(log) >= 1 {
		subCfg, err := cache.NewConfig(cfg.Sets>>uint(log), cfg.Assoc, cfg.BlockSize<<uint(log))
		if err != nil {
			return nil, err
		}
		sh.subs = make([]*Simulator, 1<<log)
		for t := range sh.subs {
			if sh.subs[t], err = New(subCfg, policy); err != nil {
				return nil, err
			}
		}
	} else {
		var err error
		if sh.whole, err = New(cfg, policy); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// NewShardedSim is NewSharded for a fully-parameterized (write-policy)
// reference pass: each sub-simulator is built with NewSim, so the
// sharded replay keeps dirty bits, per-kind statistics and memory
// traffic. The decomposition stays exact: dirty bits live per way of a
// single set, each block's first reference falls in exactly one
// sub-simulator's seen-block set, and every traffic
// counter is a sum of per-set contributions. The sub-simulators run at
// the widened shard block size, which is an addressing trick rather
// than a longer line, so their fill and writeback traffic is charged at
// the parent block size.
func NewShardedSim(o Options, log, workers int) (*Sharded, error) {
	if err := o.Config.Validate(); err != nil {
		return nil, err
	}
	if log < 0 {
		return nil, fmt.Errorf("refsim: negative shard level %d", log)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sh := &Sharded{cfg: o.Config, policy: o.Replacement, log: log, workers: workers}
	if o.Replacement != cache.Random && log <= 30 && o.Config.Sets>>uint(log) >= 1 {
		subCfg, err := cache.NewConfig(o.Config.Sets>>uint(log), o.Config.Assoc, o.Config.BlockSize<<uint(log))
		if err != nil {
			return nil, err
		}
		sub := o
		sub.Config = subCfg
		sh.subs = make([]*Simulator, 1<<log)
		for t := range sh.subs {
			if sh.subs[t], err = NewSim(sub); err != nil {
				return nil, err
			}
			sh.subs[t].fillBytes = o.Config.BlockSize
		}
	} else {
		var err error
		if sh.whole, err = NewSim(o); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// Config returns the simulated configuration.
func (sh *Sharded) Config() cache.Config { return sh.cfg }

// ShardLog returns the shard level S the pass was built for.
func (sh *Sharded) ShardLog() int { return sh.log }

// Policy returns the replacement policy.
func (sh *Sharded) Policy() cache.Policy { return sh.policy }

// Parallel reports whether the pass replays shard substreams in
// parallel (true) or fell back to the monolithic parent replay.
func (sh *Sharded) Parallel() bool { return sh.subs != nil }

// Stats returns the stitched statistics of the replays so far.
func (sh *Sharded) Stats() Stats { return sh.stats }

// Traffic returns the stitched memory-traffic counters; zero unless the
// pass was built with NewShardedSim.
func (sh *Sharded) Traffic() Traffic { return sh.traffic }

// Reset returns the pass to its freshly constructed state.
func (sh *Sharded) Reset() {
	if sh.whole != nil {
		sh.whole.Reset()
	}
	for _, sub := range sh.subs {
		sub.Reset()
	}
	sh.stats = Stats{}
	sh.traffic = Traffic{}
}

// SimulateStream replays a sharded block stream: each sub-simulator
// replays its shard substream across the worker pool and the
// statistics are summed; the fallback replays the parent stream. The
// shard stream must be partitioned at this pass's shard level and
// materialized at its block size. Results are bit-identical to
// Simulator.SimulateStream over the parent stream. Like that entry
// point, repeated calls continue the pass (chunked replays accumulate).
//
// Cancelling ctx stops claiming sub-cache replays (each sub-cache is
// one task) and returns ctx's error with the pool drained; the pass
// state is then inconsistent — Reset before reusing it. A panic inside
// a replay surfaces as a *pool.PanicError instead of crashing the
// process.
func (sh *Sharded) SimulateStream(ctx context.Context, ss *trace.ShardStream) (Stats, error) {
	if ss.Log != sh.log {
		return sh.stats, fmt.Errorf("refsim: stream sharded at level %d, pass expects %d", ss.Log, sh.log)
	}
	if ss.BlockSize != sh.cfg.BlockSize {
		return sh.stats, fmt.Errorf("refsim: stream materialized at block size %d, configuration uses %d",
			ss.BlockSize, sh.cfg.BlockSize)
	}
	if sh.whole != nil {
		if err := ctx.Err(); err != nil {
			return sh.stats, err
		}
		stats, err := sh.whole.SimulateStream(ss.Source)
		sh.stats = stats
		sh.traffic = sh.whole.Traffic()
		return sh.stats, err
	}
	if ss.NumShards() != len(sh.subs) {
		return sh.stats, fmt.Errorf("refsim: stream has %d shards, pass has %d sub-caches", ss.NumShards(), len(sh.subs))
	}

	if err := pool.Run(ctx, sh.workers, len(sh.subs), func(t int) error {
		_, err := sh.subs[t].SimulateStream(&ss.Shards[t])
		return err
	}); err != nil {
		return sh.stats, err
	}

	// Stitch: every stream-replay statistic is a sum of per-set
	// contributions and the sub-caches partition the sets. The
	// sub-simulators' stats are cumulative across replays, so the
	// stitch recomputes from scratch.
	var total Stats
	var traffic Traffic
	for _, sub := range sh.subs {
		st := sub.Stats()
		total.Accesses += st.Accesses
		total.Misses += st.Misses
		total.CompulsoryMisses += st.CompulsoryMisses
		total.Evictions += st.Evictions
		total.TagComparisons += st.TagComparisons
		for k := range st.AccessesByKind {
			total.AccessesByKind[k] += st.AccessesByKind[k]
			total.MissesByKind[k] += st.MissesByKind[k]
		}
		tr := sub.Traffic()
		traffic.BytesFromMemory += tr.BytesFromMemory
		traffic.BytesToMemory += tr.BytesToMemory
		traffic.Writebacks += tr.Writebacks
	}
	sh.stats = total
	sh.traffic = traffic
	return sh.stats, nil
}
