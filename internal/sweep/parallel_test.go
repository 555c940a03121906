package sweep

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"dew/internal/workload"
)

// stripTimes zeroes the scheduling-sensitive fields so cells can be
// compared for exact equality.
func stripTimes(c Cell) Cell {
	c.DEWTime, c.RefTime = 0, 0
	return c
}

func cellsEquivalent(t *testing.T, label string, a, b Cell) {
	t.Helper()
	a, b = stripTimes(a), stripTimes(b)
	if a.Requests != b.Requests || a.Verified != b.Verified ||
		a.DEWComparisons != b.DEWComparisons || a.RefComparisons != b.RefComparisons ||
		a.Counters != b.Counters {
		t.Fatalf("%s: cells differ:\n%+v\n%+v", label, a, b)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("%s: %d results vs %d", label, len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("%s: result %d: %+v vs %+v", label, i, a.Results[i], b.Results[i])
		}
	}
}

// TestRunCellWorkersEquivalence runs one cell's seed replicas as a
// serial batch and across a wide worker pool; everything except wall
// time must be identical, seed by seed.
func TestRunCellWorkersEquivalence(t *testing.T) {
	params := []Params{{
		App: workload.G721Dec, Requests: 15000,
		BlockSize: 16, Assoc: 4, MaxLogSets: 5,
	}}
	serial, err := Runner{Workers: 1}.RunSeeds(context.Background(), params, Seeds(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Workers: 8}.RunSeeds(context.Background(), params, Seeds(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range serial[0].Cells {
		cellsEquivalent(t, "workers 1 vs 8", c, parallel[0].Cells[i])
		if c.Verified != 12 {
			t.Errorf("seed %d: Verified = %d, want 12", c.Seed, c.Verified)
		}
	}
}

// TestRunCellsFoldLadder spans several block sizes per trace: the batch
// decodes each trace once at its finest block size and folds the
// coarser rungs, so every cell above the finest block replays a folded
// stream and must still be identical (modulo timing) to a one-cell
// batch, whose stream is decoded at the cell's own block size. The stream-length and compression fields come from the folded
// stream, so their equality doubles as a fold-exactness check at the
// sweep layer.
func TestRunCellsFoldLadder(t *testing.T) {
	var params []Params
	for _, block := range []int{4, 16, 64} {
		params = append(params, Params{
			App: workload.CJPEG, Seed: 3, Requests: 8000,
			BlockSize: block, Assoc: 4, MaxLogSets: 4,
		})
	}
	cells, err := Runner{Workers: 4}.RunCells(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range params {
		single := runOne(t, Runner{Workers: 1}, p)
		cellsEquivalent(t, p.String(), single, cells[i])
		if cells[i].StreamRuns != single.StreamRuns {
			t.Errorf("%s: folded stream has %d runs, direct decode %d", p, cells[i].StreamRuns, single.StreamRuns)
		}
		if cells[i].CompressionRatio() != single.CompressionRatio() {
			t.Errorf("%s: compression %v vs %v", p, cells[i].CompressionRatio(), single.CompressionRatio())
		}
	}
}

// TestRunCells checks the batched cell runner returns results in params
// order and identical (modulo timing) to one-cell batches run serially.
func TestRunCells(t *testing.T) {
	var params []Params
	for _, app := range []workload.App{workload.CJPEG, workload.DJPEG, workload.G721Enc} {
		for _, assoc := range []int{2, 4} {
			params = append(params, Params{
				App: app, Seed: 1, Requests: 8000,
				BlockSize: 16, Assoc: assoc, MaxLogSets: 4,
			})
		}
	}
	r := Runner{Workers: 4}
	cells, err := r.RunCells(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(params) {
		t.Fatalf("%d cells, want %d", len(cells), len(params))
	}
	for i, p := range params {
		if cells[i].App.Name != p.App.Name || cells[i].Assoc != p.Assoc {
			t.Fatalf("cell %d is %s/A%d, want %s/A%d (ordering not deterministic)",
				i, cells[i].App.Name, cells[i].Assoc, p.App.Name, p.Assoc)
		}
		single := runOne(t, Runner{Workers: 1}, p)
		cellsEquivalent(t, p.String(), single, cells[i])
	}
}

// untimed returns c with the scheduling-sensitive wall-time fields
// zeroed and the workload reduced to its name (App holds a function
// value, which reflect.DeepEqual never equates).
func untimed(c Cell) Cell {
	c.DEWTime, c.RefTime, c.ShardTime, c.RefShardTime = 0, 0, 0, 0
	c.App = workload.App{Name: c.App.Name}
	return c
}

// TestRunCellsMixedGeometryWorkers runs cells of mixed associativity
// (including direct-mapped) and block size across two workers, whose
// recycled engine kits therefore serve passes of every geometry in an
// order the scheduler picks, and serially; every field except the wall
// times must be identical, with and without sharded passes.
func TestRunCellsMixedGeometryWorkers(t *testing.T) {
	var params []Params
	for i, assoc := range []int{16, 1, 4, 8, 2, 16, 4} {
		params = append(params, Params{
			App: []workload.App{workload.CJPEG, workload.MPEG2Dec}[i%2], Seed: 5, Requests: 6000,
			BlockSize: []int{4, 16, 64}[i%3], Assoc: assoc, MaxLogSets: 6,
		})
	}
	for _, shards := range []int{0, 2} {
		serial, err := Runner{Workers: 1, Shards: shards}.RunCells(context.Background(), params)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := Runner{Workers: 2, Shards: shards}.RunCells(context.Background(), params)
		if err != nil {
			t.Fatal(err)
		}
		for i := range params {
			if a, b := untimed(serial[i]), untimed(parallel[i]); !reflect.DeepEqual(a, b) {
				t.Errorf("shards %d, %v: workers 1 and 2 differ:\n%+v\n%+v", shards, params[i], a, b)
			}
		}
	}
}

// TestRunCellsAllocationBound guards the recycled engine kits: a serial
// batch of one application's nine Table 3 cells at MaxLogSets 14
// allocates one 16-way DEW arena and one reference arena for all of its
// passes (about 9 MiB in all, trace and streams included), where
// building two DEW engines and 30 reference engines per cell allocated
// about 95 MiB.
func TestRunCellsAllocationBound(t *testing.T) {
	const bound = 16 << 20
	params := Table3Params([]workload.App{workload.G721Dec}, 1, 5000, 14)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := (Runner{Workers: 1}).RunCells(context.Background(), params); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("nine cells allocated %.1f MiB, bound %.0f MiB", float64(got)/(1<<20), float64(bound)/(1<<20))
	}
}
