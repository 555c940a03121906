package sweep

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"dew/internal/cache"
	"dew/internal/core"
	"dew/internal/engine"
	"dew/internal/store"
)

// The sweep's result tier: a finished cell — per-configuration
// statistics, property counters, recorded wall times, verification
// counts — round-trips through one store.ResultBlob, keyed by the
// trace's content identity, the cell axes (engine.Spec.CacheKey) and
// the runner's shard setting. A warm cell is served whole, with zero
// stream materializations and zero simulations; delta scheduling in
// RunCells probes here first and builds the stream machinery only for
// the cells that miss. Cached wall times are the honest measurements
// of the run that published the entry — that is what makes warm tables
// byte-identical to the cold ones.

const (
	// The "engine" component of the sweep's result keys names the
	// orchestration, not a registry engine: a cell bundles the DEW pass,
	// the instrumented cross-check and every reference pass, so its
	// payload is sweep-shaped, not single-engine-shaped.
	cellEngineName = "sweep-cell"
)

// shardsAxis serializes the runner's shard setting into the result
// key's spec component. The raw setting — not a resolved level — is
// the axis: ShardsAuto resolves per stream, and probing happens before
// any stream exists. Results are bit-identical across shard settings,
// but the recorded shard wall times and fan-outs are not, so cells
// cached under one setting do not answer for another.
func (r Runner) shardsAxis() string {
	switch {
	case r.Shards == ShardsAuto:
		return ";shards=auto"
	case r.Shards > 1:
		return fmt.Sprintf(";shards=%d", r.Shards)
	default:
		return ";shards=off"
	}
}

// cellSpec is the canonical engine spec of a miss-rate cell's DEW pass.
func cellSpec(p Params) engine.Spec {
	return engine.Spec{
		MinLogSets: 0, MaxLogSets: p.MaxLogSets,
		Assoc: p.Assoc, BlockSize: p.BlockSize, Policy: cache.FIFO,
	}
}

func (r Runner) cellSpecKey(p Params) string {
	return cellSpec(p).CacheKey() + r.shardsAxis()
}

// cellResultKey derives the result-store key of a miss-rate cell; ""
// without a cache.
func (r Runner) cellResultKey(traceID string, p Params) string {
	if r.Cache == nil {
		return ""
	}
	streamKey := store.Key(traceID, p.BlockSize, 0, false)
	return store.ResultKey(streamKey, cellEngineName, r.cellSpecKey(p))
}

// cellScalarCount pins the scalar column's layout; changing it (or any
// scalar's meaning) requires a result-format-version bump in the store
// so stale blobs stop being found. A blob with a different count reads
// as a miss, never as a partial hit.
const cellScalarCount = 20

func cellScalars(c Cell) []uint64 {
	return []uint64{
		c.Requests, c.StreamRuns,
		uint64(c.DEWTime), uint64(c.RefTime),
		uint64(c.Shards), uint64(c.ShardTime), c.ShardRuns,
		uint64(c.RefShardTime), uint64(c.RefParallel),
		c.DEWComparisons, c.RefComparisons, c.UnoptimizedEvaluations,
		uint64(c.Verified),
		c.Counters.Accesses, c.Counters.NodeEvaluations, c.Counters.MRACount,
		c.Counters.Searches, c.Counters.WaveCount, c.Counters.MRECount,
		c.Counters.TagComparisons,
	}
}

func cellBlob(r Runner, c Cell) *store.ResultBlob {
	rb := &store.ResultBlob{
		Engine:  cellEngineName,
		SpecKey: r.cellSpecKey(c.Params),
		Scalars: cellScalars(c),
		Records: make([]store.ResultRecord, len(c.Results)),
	}
	for i, res := range c.Results {
		rb.Records[i] = store.ResultRecord{Config: res.Config, Stats: res.Stats}
	}
	return rb
}

func cellFromBlob(p Params, rb *store.ResultBlob, key string) (Cell, bool) {
	if len(rb.Scalars) != cellScalarCount || rb.HasRef {
		return Cell{}, false
	}
	sc := rb.Scalars
	c := Cell{
		Params:                 p,
		Requests:               sc[0],
		StreamRuns:             sc[1],
		DEWTime:                time.Duration(sc[2]),
		RefTime:                time.Duration(sc[3]),
		Shards:                 int(sc[4]),
		ShardTime:              time.Duration(sc[5]),
		ShardRuns:              sc[6],
		RefShardTime:           time.Duration(sc[7]),
		RefParallel:            int(sc[8]),
		DEWComparisons:         sc[9],
		RefComparisons:         sc[10],
		UnoptimizedEvaluations: sc[11],
		Verified:               int(sc[12]),
		Counters: core.Counters{
			Accesses: sc[13], NodeEvaluations: sc[14], MRACount: sc[15],
			Searches: sc[16], WaveCount: sc[17], MRECount: sc[18],
			TagComparisons: sc[19],
		},
		ResultCacheHit: true,
		ResultCacheKey: key,
	}
	c.Results = make([]engine.Result, len(rb.Records))
	for i, rec := range rb.Records {
		c.Results[i] = engine.Result{Config: rec.Config, Stats: rec.Stats}
	}
	return c, true
}

// loadCell probes the result tier for a finished cell. Every probe
// failure — miss, corrupt-and-quarantined entry, unexpected payload
// shape — reads as "not cached": the caller simulates and re-publishes,
// which overwrites a malformed entry.
func (r Runner) loadCell(ctx context.Context, key string, p Params) (Cell, bool) {
	rb, err := r.Cache.GetResult(ctx, key, cellEngineName, r.cellSpecKey(p))
	if err != nil {
		return Cell{}, false
	}
	return cellFromBlob(p, rb, key)
}

// publishCell publishes a simulated cell. A publish failure is logged,
// not fatal — the simulation's results are already in hand.
func (r Runner) publishCell(ctx context.Context, key string, c Cell) {
	if err := r.Cache.PutResult(ctx, key, cellBlob(r, c)); err != nil {
		r.logf("%s: result-cache publish failed: %v", c.Params, err)
	}
}

// warmCellDiverges compares a cached cell against a live re-simulation
// on every scheduling-independent field. Wall times are excluded — they
// are honest per-recording measurements, different on every run —
// as are the provenance flags the runner sets itself.
func warmCellDiverges(cached, live Cell) error {
	switch {
	case !reflect.DeepEqual(cached.Results, live.Results):
		return fmt.Errorf("per-configuration results differ")
	case cached.Requests != live.Requests || cached.StreamRuns != live.StreamRuns:
		return fmt.Errorf("stream shape differs: cached %d/%d, live %d/%d",
			cached.Requests, cached.StreamRuns, live.Requests, live.StreamRuns)
	case cached.Counters != live.Counters:
		return fmt.Errorf("property counters differ: cached %+v, live %+v", cached.Counters, live.Counters)
	case cached.DEWComparisons != live.DEWComparisons || cached.RefComparisons != live.RefComparisons:
		return fmt.Errorf("tag comparison counts differ")
	case cached.UnoptimizedEvaluations != live.UnoptimizedEvaluations:
		return fmt.Errorf("unoptimized evaluation bounds differ")
	case cached.Verified != live.Verified:
		return fmt.Errorf("verified configuration counts differ: cached %d, live %d", cached.Verified, live.Verified)
	case cached.Shards != live.Shards || cached.ShardRuns != live.ShardRuns || cached.RefParallel != live.RefParallel:
		return fmt.Errorf("shard fan-out differs: cached %d shards/%d runs/%d parallel, live %d/%d/%d",
			cached.Shards, cached.ShardRuns, cached.RefParallel, live.Shards, live.ShardRuns, live.RefParallel)
	}
	return nil
}

// Provenance tallies a batch's delta-scheduling outcome: cells
// simulated this run, cells served whole from the result cache, and
// how many of the cached cells were additionally re-simulated live as
// the sampled warm check (counted inside cached, not simulated — the
// returned cell is the cached one, verified).
func Provenance(cells []Cell) (simulated, cached, verified int) {
	for _, c := range cells {
		switch {
		case c.ResultCacheHit:
			cached++
			if c.WarmVerified {
				verified++
			}
		default:
			simulated++
		}
	}
	return simulated, cached, verified
}
