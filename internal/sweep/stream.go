package sweep

import (
	"context"
	"fmt"
	"time"

	"dew/internal/cache"
	"dew/internal/core"
	"dew/internal/engine"
	"dew/internal/refsim"
	"dew/internal/trace"
)

// runCellStreamed is runCellStream's bounded-memory variant
// (Runner.StreamMem): instead of materializing the cell's block stream,
// one span pipeline decodes the trace chunk-parallel and the timed DEW
// pass plus every per-configuration reference pass consume each span as
// it appears. The engines accumulate across spans exactly as one
// monolithic replay, so every statistic is bit-identical to the
// materialized cell; DEWTime and each reference pass's share of RefTime
// sum only that engine's simulate calls — the decode (overlapped in the
// pipeline's workers) and the wait for spans are charged to neither
// side, preserving the materialized path's pure-simulation timing
// semantics. The untimed instrumented pass still replays the raw
// per-access trace and must agree bit for bit, so a streamed cell
// remains a full exactness proof of the span path on top of the
// reference cross-check.
func (r Runner) runCellStreamed(ctx context.Context, p Params, tr trace.Trace) (Cell, error) {
	cell := Cell{Params: p, Requests: uint64(len(tr)), Streamed: true}
	if r.sharding() {
		return cell, fmt.Errorf("sweep: StreamMem is incompatible with sharded passes (Shards=%d)", r.Shards)
	}

	// One DEW pass covers assoc 1 and p.Assoc for every set count.
	spec := engine.Spec{
		MinLogSets: 0, MaxLogSets: p.MaxLogSets,
		Assoc: p.Assoc, BlockSize: p.BlockSize, Policy: cache.FIFO,
	}
	fast, err := engine.New("dew", spec)
	if err != nil {
		return cell, err
	}

	// The reference baseline's configurations are known up front — the
	// DEW pass yields exactly (assoc 1, assoc p.Assoc) × every set count
	// — so the per-configuration reference engines ride the same
	// pipeline pass instead of replaying a retained stream afterwards.
	type refPass struct {
		cfg cache.Config
		eng engine.Engine
		dur time.Duration
	}
	assocs := []int{1}
	if p.Assoc != 1 {
		assocs = append(assocs, p.Assoc)
	}
	var refs []refPass
	byCfg := make(map[cache.Config]int)
	for logSets := 0; logSets <= p.MaxLogSets; logSets++ {
		for _, a := range assocs {
			cfg := cache.Config{Sets: 1 << logSets, Assoc: a, BlockSize: p.BlockSize}
			eng, err := engine.New("ref", engine.Spec{
				MinLogSets: logSets, MaxLogSets: logSets,
				Assoc: a, BlockSize: p.BlockSize, Policy: cache.FIFO,
			})
			if err != nil {
				return cell, err
			}
			byCfg[cfg] = len(refs)
			refs = append(refs, refPass{cfg: cfg, eng: eng})
		}
	}

	pl, err := trace.StreamSpans(ctx, tr.NewSliceReader(), p.BlockSize,
		trace.SpanOptions{MemBytes: r.StreamMem, Workers: r.workers()})
	if err != nil {
		return cell, err
	}
	defer pl.Close()
	for s := range pl.Spans() {
		if err := ctx.Err(); err != nil {
			return cell, err
		}
		cell.StreamRuns += uint64(s.Len())
		t0 := time.Now()
		if err := fast.SimulateStream(&s.BlockStream); err != nil {
			return cell, err
		}
		cell.DEWTime += time.Since(t0)
		for i := range refs {
			rp := &refs[i]
			t0 = time.Now()
			if err := rp.eng.SimulateStream(&s.BlockStream); err != nil {
				return cell, err
			}
			rp.dur += time.Since(t0)
		}
	}
	if err := pl.Err(); err != nil {
		return cell, err
	}
	cell.StreamPeakBytes = pl.ResidentBound()
	cell.Results = fast.Results()
	if fast.Accesses() != uint64(len(tr)) {
		return cell, fmt.Errorf("sweep: streamed replay covered %d accesses of cell %v over %d requests",
			fast.Accesses(), p, len(tr))
	}

	// Instrumented pass (untimed): the Table 3/4 counters plus the
	// bit-for-bit exactness check of the streamed span path against the
	// core's raw per-access replay.
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
			return cell, fmt.Errorf("sweep: streamed fast-path divergence at %v: stream %+v, instrumented %+v",
				res.Config, cell.Results[i], res)
		}
	}

	// Reference cross-check over the engines fed by the same spans.
	var first refsim.Stats
	for i, res := range cell.Results {
		ri, ok := byCfg[res.Config]
		if !ok {
			return cell, fmt.Errorf("sweep: no streamed reference pass for %v", res.Config)
		}
		stats, err := refStats(refs[ri].eng)
		if err != nil {
			return cell, err
		}
		if i == 0 {
			first = stats
		}
		cell.RefTime += refs[ri].dur
		cell.RefComparisons += stats.TagComparisons
		if err := verifyRef(cell, res, stats, first); err != nil {
			return cell, err
		}
		cell.Verified++
	}
	r.logf("%s: %d requests (%.1fx run-compressed), speedup %.1fx, comparisons -%.1f%%, streamed (peak %d bytes resident, decode overlapped)",
		p, cell.Requests, cell.CompressionRatio(), cell.Speedup(), cell.ComparisonReduction(), cell.StreamPeakBytes)
	return cell, nil
}
