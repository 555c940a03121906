package explore

import (
	"context"
	"fmt"

	"dew/internal/cache"
	"dew/internal/engine"
	"dew/internal/trace"
)

// add folds one finished pass into the result: its per-configuration
// outcomes and its provenance. Direct-mapped rows arrive from several
// passes and must agree exactly.
func (res *Result) add(includeAssoc1 bool, r engine.PassResult) error {
	for _, x := range r.Results {
		if x.Config.Assoc == 1 && !includeAssoc1 {
			continue
		}
		if prev, ok := res.Stats[x.Config]; ok && prev != x.Stats {
			return fmt.Errorf("explore: inconsistent results for %v: %+v vs %+v",
				x.Config, prev, x.Stats)
		}
		res.Stats[x.Config] = x.Stats
	}
	res.Passes++
	switch {
	case !r.Cached:
		res.CellsSimulated++
	case r.Verified:
		res.CellsCached++
		res.WarmVerified++
	default:
		res.CellsCached++
	}
	return nil
}

// compression records the run compression of the rung a pass replayed
// (or, for a result-tier hit, would have replayed), from the accesses
// and runs its pass record carries; an empty stream reports 0.
func (res *Result) compression(blockSize int, r engine.PassResult) {
	res.StreamCompression[blockSize] = 0
	if r.Runs > 0 {
		res.StreamCompression[blockSize] = float64(r.Accesses) / float64(r.Runs)
	}
}

// runStreamed is Run's span-pipeline schedule (Request.StreamMem, or
// sharded passes): the plan (engine.Plan.Replay) decodes the raw trace
// once into run-compressed spans at the finest rung (trace.StreamSpans
// — chunk-parallel, backpressured against the memory budget), and the
// span-ladder driver folds every coarser rung span by span and replays
// the rungs concurrently across Workers — each rung's live passes in
// order on its spans, split into a shard partition per span when the
// passes are sharded. The engines are sequential state machines whose
// replays accumulate across calls, so the merged results are
// bit-identical to the materialized schedule; only peak memory and
// overlap change. Warm passes are still served from the result tier
// and the sampled warm pass re-simulates on the same spans. A
// fully-warm run, on any schedule, comes here too and touches no
// stream at all.
func runStreamed(ctx context.Context, req Request, plan *engine.Plan, workers, shardLog int) (*Result, error) {
	blocks := req.Space.BlockSizes()
	passes, resident, err := plan.Replay(ctx, engine.Spans{
		Blocks: blocks, ShardLog: shardLog, Workers: workers,
		Decode: func() (*trace.StreamPipeline, error) {
			return trace.StreamSpans(ctx, req.Source(), blocks[0], trace.SpanOptions{
				MemBytes: req.StreamMem, Workers: workers, Kinds: req.Kinds,
			})
		},
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Stats:             make(map[cache.Config]cache.Stats, req.Space.Count()),
		StreamCompression: make(map[int]float64, len(blocks)),
		KindTotals:        plan.KindTotals,
	}
	if resident == 0 {
		// Every pass came from the result tier: no stream exists, so
		// the rung shapes (below) and the trace-wide kind totals come
		// out of the cached records.
		res.KindTotals = passes[0].KindTotals
	} else {
		res.Decodes, res.Folds = 1, len(blocks)-1
		res.Streamed, res.StreamPeakBytes = true, resident
		if shardLog >= 0 {
			res.Shards = 1 << shardLog
		}
	}
	includeAssoc1 := req.Space.MinLogAssoc == 0
	for i, r := range passes {
		res.compression(plan.Passes[i].Spec.BlockSize, r)
		if err := res.add(includeAssoc1, r); err != nil {
			return nil, err
		}
		if req.Progress != nil {
			req.Progress(i+1, len(passes))
		}
	}
	if len(res.Stats) != req.Space.Count() {
		return nil, fmt.Errorf("explore: covered %d of %d configurations", len(res.Stats), req.Space.Count())
	}
	return res, nil
}
