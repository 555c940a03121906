package sweep

// Write-policy cells: the reference simulator's write/alloc axes swept
// over set counts at fold-ladder speed. A write cell materializes one
// kind-preserving run-compressed stream (trace.BlockStreamWithKinds)
// and replays it through the write-policy reference engine, one timed
// pass per configuration, exactly how the miss-rate cells replay their
// kind-free streams. Every pass is cross-checked at runtime against
// the per-access replay of the raw trace — full statistics and memory
// traffic must match bit for bit — so a write cell is a continuous
// equivalence proof of the kind-preserving fast path, not a trust
// exercise; with Runner sharding on, the sharded write-policy replay
// joins the same check. StreamTime against AccessTime is the metric
// the kind channel buys: Dinero-complete write-policy results at
// run-compressed replay cost.

import (
	"context"
	"fmt"
	"time"

	"dew/internal/cache"
	"dew/internal/energy"
	"dew/internal/engine"
	"dew/internal/pool"
	"dew/internal/refsim"
	"dew/internal/store"
	"dew/internal/trace"
)

// WriteParams identifies one write-policy comparison cell: one trace
// and one (associativity, block size) pair over set counts
// 2^0..2^MaxLogSets, replayed under one replacement policy and one
// write/alloc pairing.
type WriteParams struct {
	Params
	// Policy is the replacement policy of every pass; the reference
	// simulator covers FIFO, LRU and Random exactly.
	Policy cache.Policy
	// Write and Alloc select the write and allocation policies; the
	// zero values are the write-back/write-allocate defaults.
	Write refsim.WritePolicy
	Alloc refsim.AllocPolicy
	// StoreBytes is the store width for write-through and
	// no-write-allocate traffic accounting; 0 defaults to 4.
	StoreBytes int
}

func (p WriteParams) String() string {
	return fmt.Sprintf("%s B=%d A=1&%d %v %v/%v", p.App.Name, p.BlockSize, p.Assoc, p.Policy, p.Write, p.Alloc)
}

// WriteConfigResult is one configuration's verified outcome: the full
// reference statistics (per-kind counts included) and the memory
// traffic of the stream replay, bit-identical to the per-access replay
// by the cell's runtime cross-check.
type WriteConfigResult struct {
	Config  cache.Config
	Stats   refsim.Stats
	Traffic refsim.Traffic
}

// Energy prices the result with the model's traffic-aware estimator:
// the read/write split plus the actual memory traffic (fills,
// write-throughs, writebacks) instead of a block per miss.
func (wr WriteConfigResult) Energy(m energy.Model) float64 {
	return m.TotalRef(wr.Config, wr.Stats, wr.Traffic)
}

// WriteCell is the measured outcome of one write-policy cell.
type WriteCell struct {
	WriteParams
	// Requests is the trace length actually simulated; StreamRuns the
	// length of the kind-preserving run-compressed stream every timed
	// stream pass replayed.
	Requests   uint64
	StreamRuns uint64
	// CacheHit records that the kind-preserving stream was loaded from
	// the runner's artifact store instead of materialized from the
	// trace; CacheKey is the store key consulted ("" without a cache).
	// Provenance only: loaded streams are bit-identical, and the
	// per-access cross-check still replays the raw trace.
	CacheHit bool
	CacheKey string
	// ResultCacheHit records that the whole finished cell — verified
	// results, traffic, recorded wall times — was served from the
	// store's result tier with zero simulations; ResultCacheKey is the
	// result key consulted ("" without a cache). Write cells carry no
	// per-batch warm check of their own — batches that want one run
	// their miss-rate cells through RunCells, whose sampled live
	// re-verification covers the shared cache machinery.
	ResultCacheHit bool
	ResultCacheKey string

	// StreamTime is the summed wall time of the per-configuration
	// kind-stream replays; AccessTime the summed wall time of the
	// per-access raw-trace replays they are cross-checked against (the
	// Dinero-style baseline cost).
	StreamTime, AccessTime time.Duration

	// Shards is the fan-out of the sharded write-policy replays run
	// when the runner shards (0 otherwise); ShardTime their summed wall
	// time. Parallel counts the configurations whose sharded replay
	// really decomposed across substreams — the rest fall back to the
	// exact monolithic replay and still cross-check.
	Shards    int
	ShardTime time.Duration
	Parallel  int

	// Results are the verified per-configuration outcomes, ascending by
	// set count (assoc 1 before Params.Assoc within a set count).
	Results []WriteConfigResult
	// Verified is the number of configurations cross-checked against
	// the per-access replay (all of them).
	Verified int
}

// StreamSpeedup returns AccessTime/StreamTime — how much faster the
// kind-preserving stream replays covered the cell's configurations
// than the per-access replays they were verified against.
func (c WriteCell) StreamSpeedup() float64 {
	if c.StreamTime <= 0 {
		return 0
	}
	return float64(c.AccessTime) / float64(c.StreamTime)
}

// CompressionRatio returns accesses per stream run, exactly like
// Cell.CompressionRatio; an empty trace yields 0.
func (c WriteCell) CompressionRatio() float64 {
	if c.StreamRuns == 0 {
		return 0
	}
	return float64(c.Requests) / float64(c.StreamRuns)
}

// RunWriteCellTrace runs one write-policy cell over an explicit
// in-memory trace. Cancellation follows the miss-rate cells' contract:
// ctx stops the cell between configuration replays and returns its
// error with the pool drained. The kind-preserving stream is
// materialized here, once, and shared by every timed stream pass; the
// per-access cross-check passes replay the raw trace. With Runner
// sharding on, the stream's shard partition is materialized once as
// well and every configuration additionally replays it through the
// sharded write-policy engine, cross-checked bit-for-bit like the
// stream pass.
func (r Runner) RunWriteCellTrace(ctx context.Context, p WriteParams, tr trace.Trace) (WriteCell, error) {
	cell := WriteCell{WriteParams: p, Requests: uint64(len(tr))}
	key := ""
	if r.Cache != nil {
		key = r.writeCellResultKey(store.TraceID(tr), p)
		if warm, ok := r.loadWriteCell(ctx, key, p); ok {
			r.logf("%s: result-cache-hit (%d configs, %d requests, 0 simulations)",
				p, warm.Verified, warm.Requests)
			return warm, nil
		}
	}
	bs, prov, err := r.materializeStream(ctx, tr, p.BlockSize, true)
	if err != nil {
		return cell, err
	}
	cell.StreamRuns = uint64(bs.Len())
	cell.CacheHit, cell.CacheKey = prov.cacheHit, prov.cacheKey

	var ss *trace.ShardStream
	if r.sharding() {
		if log := r.shardLog(p.MaxLogSets, bs); log >= 0 {
			if ss, err = trace.ShardBlockStream(bs, log); err != nil {
				return cell, err
			}
			cell.Shards = ss.NumShards()
		}
	}

	// One configuration per (set count, assoc ∈ {1, p.Assoc}) — the
	// coverage a miss-rate cell's reference baseline sweeps.
	type job struct{ logSets, assoc int }
	var jobs []job
	for log := 0; log <= p.MaxLogSets; log++ {
		jobs = append(jobs, job{log, 1})
		if p.Assoc != 1 {
			jobs = append(jobs, job{log, p.Assoc})
		}
	}

	type out struct {
		streamDur, accessDur, shardDur time.Duration
		res                            WriteConfigResult
		parallel                       bool
	}
	outs := make([]out, len(jobs))
	if err := pool.Run(ctx, r.workers(), len(jobs), func(i int) error {
		jb := jobs[i]
		cfg, err := cache.NewConfig(1<<jb.logSets, jb.assoc, p.BlockSize)
		if err != nil {
			return err
		}
		spec := engine.Spec{
			MinLogSets: jb.logSets, MaxLogSets: jb.logSets,
			Assoc: jb.assoc, BlockSize: p.BlockSize, Policy: p.Policy,
			WriteSim: true, Write: p.Write, Alloc: p.Alloc, StoreBytes: p.StoreBytes,
		}

		// Timed kind-stream replay — what StreamTime reports.
		eng, dur, err := engine.TimedRun(ctx, "ref", spec, bs, nil)
		if err != nil {
			return err
		}
		stats, err := refStats(eng)
		if err != nil {
			return err
		}
		ts, ok := eng.(engine.TrafficStatser)
		if !ok {
			return fmt.Errorf("sweep: engine %T does not account memory traffic", eng)
		}
		traffic := ts.RefTraffic()
		outs[i].streamDur = dur

		// Timed per-access baseline replay of the raw trace, doubling
		// as the runtime cross-check: statistics and traffic must match
		// the stream replay bit for bit.
		sim, err := refsim.NewSim(refsim.Options{
			Config: cfg, Replacement: p.Policy,
			Write: p.Write, Alloc: p.Alloc, StoreBytes: p.StoreBytes,
		})
		if err != nil {
			return err
		}
		start := time.Now()
		accessStats, err := sim.Simulate(tr.NewSliceReader())
		if err != nil {
			return err
		}
		outs[i].accessDur = time.Since(start)
		if accessStats != stats {
			return fmt.Errorf("sweep: write-policy stream divergence at %v: stream %+v, per-access %+v",
				cfg, stats, accessStats)
		}
		if at := sim.Traffic(); at != traffic {
			return fmt.Errorf("sweep: write-policy traffic divergence at %v: stream %+v, per-access %+v",
				cfg, traffic, at)
		}

		// Sharded replay (when the runner shards), held to the same
		// standard.
		if ss != nil {
			shardEng, shardDur, err := engine.TimedRun(ctx, "ref", spec, bs, ss)
			if err != nil {
				return err
			}
			shardStats, err := refStats(shardEng)
			if err != nil {
				return err
			}
			if shardStats != stats {
				return fmt.Errorf("sweep: sharded write-policy divergence at %v: sharded %+v, stream %+v",
					cfg, shardStats, stats)
			}
			if st := shardEng.(engine.TrafficStatser).RefTraffic(); st != traffic {
				return fmt.Errorf("sweep: sharded write-policy traffic divergence at %v: sharded %+v, stream %+v",
					cfg, st, traffic)
			}
			outs[i].shardDur = shardDur
			outs[i].parallel = engine.Parallel(shardEng)
		}
		outs[i].res = WriteConfigResult{Config: cfg, Stats: stats, Traffic: traffic}
		return nil
	}); err != nil {
		return cell, err
	}

	cell.Results = make([]WriteConfigResult, len(outs))
	for i := range outs {
		cell.Results[i] = outs[i].res
		cell.StreamTime += outs[i].streamDur
		cell.AccessTime += outs[i].accessDur
		cell.ShardTime += outs[i].shardDur
		if outs[i].parallel {
			cell.Parallel++
		}
		cell.Verified++
	}
	if key != "" {
		cell.ResultCacheKey = key
		r.publishWriteCell(ctx, key, cell)
	}
	cacheNote := ""
	if cell.CacheHit {
		cacheNote = ", stream cache-hit"
	}
	if cell.Shards > 0 {
		r.logf("%s: %d requests (%.1fx run-compressed), stream %.1fx vs per-access, %d-shard replays (%d/%d parallel), %d configs verified%s",
			p, cell.Requests, cell.CompressionRatio(), cell.StreamSpeedup(),
			cell.Shards, cell.Parallel, cell.Verified, cell.Verified, cacheNote)
	} else {
		r.logf("%s: %d requests (%.1fx run-compressed), stream %.1fx vs per-access, %d configs verified%s",
			p, cell.Requests, cell.CompressionRatio(), cell.StreamSpeedup(), cell.Verified, cacheNote)
	}
	return cell, nil
}
