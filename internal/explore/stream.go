package explore

import (
	"context"
	"fmt"

	"dew/internal/cache"
	"dew/internal/engine"
	"dew/internal/store"
	"dew/internal/trace"
)

// passSpec identifies one DEW pass: one (block size, associativity)
// pair covering every set count of the space. rung indexes the block
// size in the space's ascending ladder.
type passSpec struct{ block, assoc, rung int }

// mergeStats folds one pass's per-configuration results into the shared
// table. Direct-mapped rows arrive from several passes and must agree
// exactly.
func mergeStats(res *Result, includeAssoc1 bool, results []engine.Result) error {
	for _, r := range results {
		if r.Config.Assoc == 1 && !includeAssoc1 {
			continue
		}
		if prev, ok := res.Stats[r.Config]; ok && prev != r.Stats {
			return fmt.Errorf("explore: inconsistent results for %v: %+v vs %+v",
				r.Config, prev, r.Stats)
		}
		res.Stats[r.Config] = r.Stats
	}
	return nil
}

// runStreamed is Run's span-pipeline schedule (Request.StreamMem, or
// sharded passes): the raw trace decodes once into run-compressed spans
// at the finest rung (trace.StreamSpans — chunk-parallel, backpressured
// against the memory budget), and the span-ladder driver
// (engine.SpanLadder) folds every coarser rung span by span and replays
// the rungs concurrently across Workers — each rung's passes in order
// on its spans, split into a shard partition per span when the passes
// are sharded. The engines are sequential state machines whose replays
// accumulate across calls, so the merged results are bit-identical to
// the materialized schedule; only peak memory and overlap change. Warm
// passes are still served from the result tier, the sampled warm pass
// re-simulates on the same spans, and the span input
// (engine.SpanInput) publishes a cold finest rung to the stream tier as
// it flows past, or — for a sharded run without an explicit StreamMem
// budget — takes a stream-tier hit instead of decoding.
func runStreamed(ctx context.Context, req Request, name string, passes []passSpec,
	warmBlobs []*store.ResultBlob, passKeys []string, checkIdx, workers, shardLog int) (*Result, error) {
	blocks := req.Space.BlockSizes()

	// One engine per pass that replays live this run (result-tier misses
	// plus the sampled warm check), grouped by rung for the driver.
	engs := make([]engine.Engine, len(passes))
	byBlock := make(map[int][]engine.Engine, len(blocks))
	for i, ps := range passes {
		if warmBlobs[i] != nil && i != checkIdx {
			continue
		}
		spec := passResultSpec(req, ps.block, ps.assoc)
		spec.Workers = workers
		e, err := engine.New(name, spec)
		if err != nil {
			return nil, fmt.Errorf("explore: pass B=%d A=%d: %w", ps.block, ps.assoc, err)
		}
		engs[i] = e
		byBlock[ps.block] = append(byBlock[ps.block], e)
	}

	ladder, err := engine.NewSpanLadder(blocks[0], blocks, req.Kinds, shardLog, workers, byBlock)
	if err != nil {
		return nil, err
	}
	cacheKey := ""
	if req.Cache != nil && req.SourceID != "" {
		cacheKey = store.Key(req.SourceID, blocks[0], 0, req.Kinds)
	}

	in, err := engine.OpenSpanInput(ctx, req.Cache, cacheKey, blocks[0], req.Kinds, req.StreamMem,
		func() (*trace.StreamPipeline, error) {
			return trace.StreamSpans(ctx, req.Source(), blocks[0], trace.SpanOptions{
				MemBytes: req.StreamMem, Workers: workers, Kinds: req.Kinds,
			})
		})
	if err != nil {
		return nil, err
	}
	defer in.Close()
	// Trace-wide kind totals accumulate across spans; the driver keeps
	// each rung's stream shape (folding and span cuts both preserve
	// access counts exactly).
	var kt [3]uint64
	var countKinds func(*trace.BlockStream)
	if req.Kinds {
		countKinds = func(s *trace.BlockStream) {
			for k, n := range s.KindTotals() {
				kt[k] += n
			}
		}
	}
	if err := in.Replay(ctx, ladder, countKinds); err != nil {
		return nil, err
	}

	res := &Result{
		Stats:             make(map[cache.Config]cache.Stats, req.Space.Count()),
		StreamCompression: make(map[int]float64, len(blocks)),
		Decodes:           1,
		Folds:             len(blocks) - 1,
		Streamed:          !in.Loaded(),
		StreamPeakBytes:   in.ResidentBound(),
		CacheHit:          in.Loaded(),
		CacheKey:          cacheKey,
		KindTotals:        kt,
	}
	if in.Loaded() {
		res.Decodes = 0
	}
	if shardLog >= 0 {
		res.Shards = 1 << shardLog
	}
	for _, b := range blocks {
		res.StreamCompression[b] = 0
		if acc, runs := ladder.Shape(b); runs > 0 {
			res.StreamCompression[b] = float64(acc) / float64(runs)
		}
	}

	includeAssoc1 := req.Space.MinLogAssoc == 0
	done := 0
	finish := func(results []engine.Result, simulated, verified bool) error {
		if err := mergeStats(res, includeAssoc1, results); err != nil {
			return err
		}
		res.Passes++
		if simulated {
			res.CellsSimulated++
		} else {
			res.CellsCached++
			if verified {
				res.WarmVerified++
			}
		}
		done++
		if req.Progress != nil {
			req.Progress(done, len(passes))
		}
		return nil
	}
	for i, ps := range passes {
		warm := warmBlobs[i]
		if engs[i] == nil {
			// Served whole from the result tier: zero engine work.
			if err := finish(passResults(warm), false, false); err != nil {
				return nil, err
			}
			continue
		}
		results := engs[i].Results()
		acc, runs := ladder.Shape(ps.block)
		if warm != nil {
			// The sampled warm check, replayed on the shared spans.
			if err := passDiverges(warm, results, acc, runs, kt); err != nil {
				req.Cache.DropResult(passKeys[i])
				return nil, fmt.Errorf("explore: result cache diverged from live re-simulation at pass B=%d A=%d (entry dropped): %w",
					ps.block, ps.assoc, err)
			}
			if err := finish(passResults(warm), false, true); err != nil {
				return nil, err
			}
			continue
		}
		if passKeys[i] != "" {
			blob := passBlob(name, passResultSpec(req, ps.block, ps.assoc).CacheKey(),
				passScalars(acc, runs, kt), results)
			req.Cache.PutResult(ctx, passKeys[i], blob)
		}
		if err := finish(results, true, false); err != nil {
			return nil, err
		}
	}
	if len(res.Stats) != req.Space.Count() {
		return nil, fmt.Errorf("explore: covered %d of %d configurations", len(res.Stats), req.Space.Count())
	}
	return res, nil
}
