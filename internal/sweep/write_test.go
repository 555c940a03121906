package sweep

import (
	"context"
	"strings"
	"testing"

	"dew/internal/cache"
	"dew/internal/energy"
	"dew/internal/refsim"
	"dew/internal/trace"
	"dew/internal/workload"
)

// kindMixTrace builds a store-carrying trace so every write/alloc
// pairing has observable traffic.
func kindMixTrace(n int) trace.Trace {
	gen := workload.NewKindMix(7,
		workload.NewTableLookup(3, 0, 256, 8, 0.1, 0.8, trace.DataRead), 6, 3, 1)
	return workload.Take(gen, n)
}

func TestRunWriteCellCombos(t *testing.T) {
	tr := kindMixTrace(8000)
	combos := []struct {
		w refsim.WritePolicy
		a refsim.AllocPolicy
	}{
		{refsim.WriteBack, refsim.WriteAllocate},
		{refsim.WriteBack, refsim.NoWriteAllocate},
		{refsim.WriteThrough, refsim.WriteAllocate},
		{refsim.WriteThrough, refsim.NoWriteAllocate},
	}
	model := energy.DefaultModel()
	for _, combo := range combos {
		p := WriteParams{
			Params: Params{App: workload.CJPEG, BlockSize: 16, Assoc: 4, MaxLogSets: 4},
			Policy: cache.LRU, Write: combo.w, Alloc: combo.a, StoreBytes: 2,
		}
		cell, err := Runner{}.RunWriteCellTrace(context.Background(), p, tr)
		if err != nil {
			t.Fatalf("%v/%v: %v", combo.w, combo.a, err)
		}
		// 5 levels × (assoc 1 + assoc 4), every one cross-checked
		// against the per-access replay inside the run.
		if cell.Verified != 10 || len(cell.Results) != 10 {
			t.Errorf("%v/%v: Verified = %d, Results = %d, want 10",
				combo.w, combo.a, cell.Verified, len(cell.Results))
		}
		if cell.StreamTime <= 0 || cell.AccessTime <= 0 {
			t.Errorf("times not recorded: stream=%v access=%v", cell.StreamTime, cell.AccessTime)
		}
		if cell.StreamRuns == 0 || cell.CompressionRatio() <= 1 {
			t.Errorf("stream not run-compressed: runs=%d", cell.StreamRuns)
		}
		var sawTraffic bool
		for _, res := range cell.Results {
			if res.Traffic.BytesFromMemory > 0 || res.Traffic.BytesToMemory > 0 {
				sawTraffic = true
			}
			if res.Stats.AccessesByKind[trace.DataWrite] == 0 {
				t.Errorf("%v: no stores counted", res.Config)
			}
			if e := res.Energy(model); e <= 0 {
				t.Errorf("%v: energy = %f", res.Config, e)
			}
		}
		if !sawTraffic {
			t.Errorf("%v/%v: no memory traffic recorded", combo.w, combo.a)
		}
	}
}

func TestRunWriteCellSharded(t *testing.T) {
	tr := kindMixTrace(12000)
	p := WriteParams{
		Params: Params{App: workload.DJPEG, BlockSize: 8, Assoc: 2, MaxLogSets: 5},
		Policy: cache.FIFO, Write: refsim.WriteThrough, Alloc: refsim.NoWriteAllocate,
	}
	var logged []string
	r := Runner{Shards: 4, Logf: func(f string, a ...interface{}) { logged = append(logged, f) }}
	cell, err := r.RunWriteCellTrace(context.Background(), p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Shards != 4 {
		t.Errorf("Shards = %d, want 4", cell.Shards)
	}
	if cell.ShardTime <= 0 {
		t.Error("sharded replays not timed")
	}
	// Configurations with ≥ 4 sets really decompose: logs 2..5 at both
	// associativities.
	if cell.Parallel != 8 {
		t.Errorf("Parallel = %d, want 8", cell.Parallel)
	}
	if cell.Verified != 12 {
		t.Errorf("Verified = %d, want 12", cell.Verified)
	}
	if len(logged) == 0 || !strings.Contains(logged[0], "shard") {
		t.Errorf("no sharded progress logged: %q", logged)
	}
}

func TestRunWriteCellFromApp(t *testing.T) {
	p := WriteParams{
		Params: Params{App: workload.CJPEG, Seed: 1, Requests: 4000, BlockSize: 32, Assoc: 2, MaxLogSets: 3},
	}
	tr := workload.Take(p.App.Generator(p.Seed), int(p.requests()))
	cell, err := Runner{}.RunWriteCellTrace(context.Background(), p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Requests != 4000 {
		t.Errorf("Requests = %d", cell.Requests)
	}
	if cell.Verified != 8 {
		t.Errorf("Verified = %d, want 8", cell.Verified)
	}
	if s := p.String(); !strings.Contains(s, "CJPEG") || !strings.Contains(s, "write-back") {
		t.Errorf("String = %q", s)
	}
}

func TestWriteCellMetricsZeroSafe(t *testing.T) {
	var c WriteCell
	if c.StreamSpeedup() != 0 || c.CompressionRatio() != 0 {
		t.Error("zero write cell metrics should be 0")
	}
}

func TestRunWriteCellRejectsBadParams(t *testing.T) {
	p := WriteParams{Params: Params{App: workload.CJPEG, BlockSize: 3, Assoc: 2, MaxLogSets: 2}}
	if _, err := (Runner{}).RunWriteCellTrace(context.Background(), p, trace.Trace{{Addr: 1}}); err == nil {
		t.Error("want error for bad block size")
	}
	bad := WriteParams{
		Params:     Params{App: workload.CJPEG, BlockSize: 4, Assoc: 2, MaxLogSets: 2},
		StoreBytes: -1,
	}
	if _, err := (Runner{}).RunWriteCellTrace(context.Background(), bad, trace.Trace{{Addr: 1}}); err == nil {
		t.Error("want error for negative store width")
	}
}
