package explore

import (
	"fmt"

	"dew/internal/cache"
	"dew/internal/engine"
	"dew/internal/store"
)

// The exploration's result tier: one finished DEW pass — every
// per-configuration outcome it yields plus its rung's stream shape —
// round-trips through one store.ResultBlob, keyed by the trace's
// content identity at the pass's block size, the engine name, and the
// pass axes (engine.Spec.CacheKey). Unlike the sweep's cells, a pass
// records no wall times and its results are bit-identical across
// shard settings, so the runner's shard fan-out is deliberately NOT a
// key axis: an exploration sharded one way answers warm for any other.

// exploreScalarCount pins the pass payload's scalar layout:
// [stream accesses, stream runs, per-kind totals ×3]. Changing it (or
// any scalar's meaning) requires a result-format-version bump in the
// store. A blob with a different count reads as a miss.
const exploreScalarCount = 5

// passResultSpec is the canonical engine spec of one (block, assoc)
// pass over the request's space. Workers are scheduling, not identity,
// and are excluded by Spec.CacheKey.
func passResultSpec(req Request, block, assoc int) engine.Spec {
	return engine.Spec{
		MinLogSets: req.Space.MinLogSets, MaxLogSets: req.Space.MaxLogSets,
		Assoc: assoc, BlockSize: block, Policy: req.Policy,
	}
}

// passResultKey derives the result-store key of one pass. The
// stream-key component carries the pass's own block size (and the
// request's kinds flag) even though only the finest rung is ever
// stored as a stream — the key is pure content identity, not a claim
// that the rung's stream exists on disk.
func passResultKey(req Request, name string, block, assoc int) string {
	streamKey := store.Key(req.SourceID, block, 0, req.Kinds)
	return store.ResultKey(streamKey, name, passResultSpec(req, block, assoc).CacheKey())
}

func passScalars(accesses, runs uint64, kinds [3]uint64) []uint64 {
	return []uint64{accesses, runs, kinds[0], kinds[1], kinds[2]}
}

func passBlob(name, specKey string, scalars []uint64, results []engine.Result) *store.ResultBlob {
	rb := &store.ResultBlob{
		Engine:  name,
		SpecKey: specKey,
		Scalars: scalars,
		Records: make([]store.ResultRecord, len(results)),
	}
	for i, r := range results {
		rb.Records[i] = store.ResultRecord{Config: r.Config, Stats: r.Stats}
	}
	return rb
}

// passWarmOK vets a loaded blob's shape; anything unexpected reads as
// a miss and the pass simulates (overwriting the malformed entry).
func passWarmOK(rb *store.ResultBlob) bool {
	return len(rb.Scalars) == exploreScalarCount && !rb.HasRef && len(rb.Records) > 0
}

func passResults(rb *store.ResultBlob) []engine.Result {
	results := make([]engine.Result, len(rb.Records))
	for i, rec := range rb.Records {
		results[i] = engine.Result{Config: rec.Config, Stats: rec.Stats}
	}
	return results
}

// passDiverges compares a cached pass against its live re-simulation:
// the rung's stream shape, the trace-wide kind totals, and every
// per-configuration outcome must agree exactly.
func passDiverges(rb *store.ResultBlob, live []engine.Result, accesses, runs uint64, kinds [3]uint64) error {
	sc := rb.Scalars
	if sc[0] != accesses || sc[1] != runs {
		return fmt.Errorf("stream shape differs: cached %d accesses/%d runs, live %d/%d",
			sc[0], sc[1], accesses, runs)
	}
	if kt := ([3]uint64{sc[2], sc[3], sc[4]}); kt != kinds {
		return fmt.Errorf("kind totals differ: cached %v, live %v", kt, kinds)
	}
	if len(rb.Records) != len(live) {
		return fmt.Errorf("configuration counts differ: cached %d, live %d", len(rb.Records), len(live))
	}
	cached := make(map[cache.Config]cache.Stats, len(rb.Records))
	for _, rec := range rb.Records {
		cached[rec.Config] = rec.Stats
	}
	for _, r := range live {
		if st, ok := cached[r.Config]; !ok || st != r.Stats {
			return fmt.Errorf("results differ at %v", r.Config)
		}
	}
	return nil
}
