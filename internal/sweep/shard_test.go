package sweep

import (
	"context"
	"runtime"
	"testing"

	"dew/internal/workload"
)

// TestRunCellSharded runs one cell with and without sharding: everything
// except wall times and the shard bookkeeping must be identical, the
// shard fields must be populated, and the sharded pass must have been
// verified against the instrumented pass (an error would have surfaced).
func TestRunCellSharded(t *testing.T) {
	p := Params{
		App: workload.CJPEG, Seed: 3, Requests: 15000,
		BlockSize: 16, Assoc: 4, MaxLogSets: 6,
	}
	plain := runOne(t, Runner{Workers: 1}, p)
	sharded := runOne(t, Runner{Workers: 1, Shards: 4}, p)
	if plain.Shards != 0 || plain.ShardTime != 0 {
		t.Errorf("unsharded cell has shard fields: %d trees, %v", plain.Shards, plain.ShardTime)
	}
	if sharded.Shards != 4 {
		t.Errorf("Shards = %d, want 4", sharded.Shards)
	}
	if sharded.ShardTime <= 0 {
		t.Error("sharded pass not timed")
	}
	if sharded.ShardRuns == 0 || sharded.ShardRuns > sharded.StreamRuns {
		t.Errorf("ShardRuns = %d outside (0, %d]", sharded.ShardRuns, sharded.StreamRuns)
	}
	// The sharded reference replays ran and cross-checked on every
	// configuration; with MaxLogSets 6 and S=2, levels 2..6 decompose
	// (both the assoc-A and direct-mapped rows).
	if plain.RefShardTime != 0 || plain.RefParallel != 0 {
		t.Errorf("unsharded cell has sharded-ref fields: %v, %d", plain.RefShardTime, plain.RefParallel)
	}
	if sharded.RefShardTime <= 0 {
		t.Error("sharded reference replays not timed")
	}
	if wantPar := 2 * (6 - 2 + 1); sharded.RefParallel != wantPar {
		t.Errorf("RefParallel = %d, want %d", sharded.RefParallel, wantPar)
	}
	// Shard bookkeeping aside, the cells must agree exactly.
	sharded.Shards, sharded.ShardTime, sharded.ShardRuns = 0, 0, 0
	sharded.RefShardTime, sharded.RefParallel = 0, 0
	cellsEquivalent(t, "plain vs sharded", plain, sharded)
}

// TestRunCellsShardedSharing exercises the shared ShardStream path of
// RunCells (several cells per distinct stream) and equivalence with
// one-cell batches, which partition their own stream.
func TestRunCellsShardedSharing(t *testing.T) {
	params := []Params{
		{App: workload.G721Dec, Seed: 2, Requests: 8000, BlockSize: 16, Assoc: 4, MaxLogSets: 5},
		{App: workload.G721Dec, Seed: 2, Requests: 8000, BlockSize: 16, Assoc: 8, MaxLogSets: 5},
		{App: workload.G721Dec, Seed: 2, Requests: 8000, BlockSize: 4, Assoc: 4, MaxLogSets: 5},
		// Different MaxLogSets forces a second shard level for the same
		// (trace, block) stream.
		{App: workload.G721Dec, Seed: 2, Requests: 8000, BlockSize: 16, Assoc: 4, MaxLogSets: 1},
	}
	r := Runner{Workers: 2, Shards: 4}
	cells, err := r.RunCells(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		single := runOne(t, r, params[i])
		if c.Shards != single.Shards || c.ShardRuns != single.ShardRuns {
			t.Errorf("cell %d: shared shard stream (%d trees, %d runs) vs per-cell (%d, %d)",
				i, c.Shards, c.ShardRuns, single.Shards, single.ShardRuns)
		}
		a, b := c, single
		a.Shards, a.ShardTime, a.ShardRuns = 0, 0, 0
		b.Shards, b.ShardTime, b.ShardRuns = 0, 0, 0
		cellsEquivalent(t, "shared vs per-cell", a, b)
	}
	// The capped cell sharded at level MaxLogSets=1 → 2 trees.
	if cells[3].Shards != 2 {
		t.Errorf("capped cell fanned across %d trees, want 2", cells[3].Shards)
	}
}

// TestShardLogResolution pins the Shards → shard level mapping.
func TestShardLogResolution(t *testing.T) {
	cases := []struct {
		shards, maxLog, want int
	}{
		{0, 10, -1}, {1, 10, -1}, {2, 10, 1}, {3, 10, 2}, {4, 10, 2},
		{8, 10, 3}, {8, 2, 2}, {16, 10, 4},
	}
	for _, c := range cases {
		// A fixed shard count resolves without consulting the stream.
		if got := (Runner{Shards: c.shards}).shardLog(c.maxLog, nil); got != c.want {
			t.Errorf("shardLog(shards=%d, maxLog=%d) = %d, want %d", c.shards, c.maxLog, got, c.want)
		}
	}
	// ShardsAuto consults the stream: a skewed one resolves to off.
	if got := (Runner{Shards: ShardsAuto}).shardLog(10, skewedStream(2048)); got != -1 {
		t.Errorf("auto shardLog over skewed stream = %d, want -1", got)
	}
	if got := AutoShards(); got < 1 || got > runtime.GOMAXPROCS(0) || got&(got-1) != 0 {
		t.Errorf("AutoShards() = %d, want a power of two in [1, GOMAXPROCS]", got)
	}
}
