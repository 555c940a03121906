package sweep

import (
	"context"
	"testing"
	"time"

	"dew/internal/workload"
)

// TestRunCellSeeds replicates two cells across three seeds in one
// batch: the aggregates come back in params order, each with its cells
// in seed order.
func TestRunCellSeeds(t *testing.T) {
	params := []Params{
		{App: workload.DJPEG, Requests: 10000, BlockSize: 16, Assoc: 4, MaxLogSets: 4},
		{App: workload.CJPEG, Requests: 10000, BlockSize: 4, Assoc: 2, MaxLogSets: 4},
	}
	aggs, err := (Runner{}).RunSeeds(context.Background(), params, Seeds(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != len(params) {
		t.Fatalf("aggregates = %d, want %d", len(aggs), len(params))
	}
	for i, agg := range aggs {
		want := params[i].String()
		if agg.String() != want {
			t.Errorf("aggregate %d is %s, want %s", i, agg.Params, want)
		}
		for _, c := range agg.Cells {
			if c.String() != want {
				t.Errorf("aggregate %d holds a %s cell", i, c.Params)
			}
		}
	}
	agg := aggs[0]
	if len(agg.Cells) != 3 {
		t.Fatalf("cells = %d", len(agg.Cells))
	}
	for i, c := range agg.Cells {
		if c.Seed != uint64(1+i) {
			t.Errorf("cell %d seed = %d", i, c.Seed)
		}
		if c.Requests != 10000 {
			t.Errorf("cell %d requests = %d", i, c.Requests)
		}
	}
	combined := agg.Combined()
	if combined.Requests != 30000 {
		t.Errorf("combined requests = %d, want 30000", combined.Requests)
	}
	var wantTime time.Duration
	var wantCmp uint64
	for _, c := range agg.Cells {
		wantTime += c.DEWTime
		wantCmp += c.DEWComparisons
	}
	if combined.DEWTime != wantTime || combined.DEWComparisons != wantCmp {
		t.Error("combined sums wrong")
	}
	if combined.Verified != 3*10 {
		t.Errorf("combined verified = %d, want 30", combined.Verified)
	}

	minS, maxS := agg.SpeedupRange()
	if minS <= 0 || maxS < minS {
		t.Errorf("speedup range [%f, %f]", minS, maxS)
	}
	minR, maxR := agg.ReductionRange()
	if maxR < minR {
		t.Errorf("reduction range [%f, %f]", minR, maxR)
	}
}

func TestRunCellSeedsEmpty(t *testing.T) {
	if _, err := (Runner{}).RunSeeds(context.Background(), []Params{{}}, nil); err == nil {
		t.Error("empty seed list should fail")
	}
}

func TestCombinedEmpty(t *testing.T) {
	agg := Aggregate{Params: Params{BlockSize: 4}}
	c := agg.Combined()
	if c.BlockSize != 4 || c.Requests != 0 {
		t.Errorf("empty combined = %+v", c)
	}
}

func TestSeedsHelper(t *testing.T) {
	s := Seeds(5, 4)
	want := []uint64{5, 6, 7, 8}
	if len(s) != 4 {
		t.Fatalf("Seeds = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("Seeds[%d] = %d, want %d", i, s[i], want[i])
		}
	}
	if len(Seeds(1, 0)) != 0 {
		t.Error("Seeds(_, 0) should be empty")
	}
}
