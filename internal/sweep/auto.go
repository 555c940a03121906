package sweep

import (
	"math/bits"
	"runtime"

	"dew/internal/trace"
)

// ShardsAuto, assigned to Runner.Shards, asks the runner to pick each
// cell's shard fan-out from the cell's own materialized stream (see
// AutoShardsStream) instead of a fixed count. The -shards 0 CLI knob
// maps here.
const ShardsAuto = -1

// Shard levels deeper than this stop paying even on wide machines (the
// shallow pass and stitch overheads grow with 2^S).
const maxAutoShardLog = 8

// autoShardMinGain is the minimum estimated critical-path speedup
// before sharding is worth its coordination overhead at all.
const autoShardMinGain = 1.5

// autoShardShrink is how much the critical path must shrink per
// additional shard level to justify going deeper: a balanced partition
// halves it (0.5); a skewed one that keeps more than this fraction is
// not parallelizing, only fragmenting.
const autoShardShrink = 0.75

// AutoShardsStream picks a shard fan-out for one materialized stream
// from the stream's own statistics rather than the core count alone.
// For each candidate level S it computes the exact per-shard run
// counts after re-compression (trace.ShardRunCounts — the counting
// half of the partition, no materialization): a sharded pass's
// critical path is its largest shard, so the estimated gain at S is
// parent runs / max shard runs, which folds in both the parallel
// fan-out and the per-shard re-compression the partition buys. The
// deepest level within the worker budget whose critical path keeps
// shrinking (a skewed trace that funnels everything into one shard
// stops early) and whose estimated gain clears the overhead threshold
// wins; 1 means sharding is off. maxLogSets caps the level exactly as
// trace.ShardLog does; workers ≤ 0 means GOMAXPROCS.
func AutoShardsStream(bs *trace.BlockStream, maxLogSets, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 2 || bs.Len() == 0 {
		return 1
	}
	// Floor to the worker budget (a fan-out beyond the cores only adds
	// coordination), then cap like every shard knob.
	maxLog := trace.ShardLog(1<<(bits.Len(uint(workers))-1), min(maxLogSets, maxAutoShardLog))
	if maxLog < 1 {
		return 1
	}
	best := 1
	parent := float64(bs.Len())
	prev := parent
	for log := 1; log <= maxLog; log++ {
		counts, err := trace.ShardRunCounts(bs, log)
		if err != nil {
			break
		}
		critical := 0
		for _, c := range counts {
			critical = max(critical, c)
		}
		if critical == 0 || float64(critical) > prev*autoShardShrink {
			break
		}
		if parent/float64(critical) >= autoShardMinGain {
			best = 1 << log
		}
		prev = float64(critical)
	}
	return best
}
