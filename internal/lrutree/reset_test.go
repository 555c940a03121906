package lrutree

import (
	"testing"

	"dew/internal/workload"
)

// TestResetEquivalence replays on a Reset simulator vs a fresh one and
// asserts zero steady-state allocations.
func TestResetEquivalence(t *testing.T) {
	tr := workload.Take(workload.CJPEG.Generator(9), 15_000)
	opt := Options{MaxLogSets: 7, Assoc: 4, BlockSize: 16}
	bs, err := tr.BlockStream(opt.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	reused := mustSim(opt)
	for round := 0; round < 3; round++ {
		if round > 0 {
			reused.Reset()
		}
		if err := reused.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		fresh := mustSim(opt)
		if err := fresh.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		fr, rr := fresh.Results(), reused.Results()
		for i := range fr {
			if fr[i] != rr[i] {
				t.Fatalf("round %d: result %d = %+v, want %+v", round, i, rr[i], fr[i])
			}
		}
	}
	avg := testing.AllocsPerRun(5, func() {
		reused.Reset()
		if err := reused.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("%v allocs per Reset+replay, want 0", avg)
	}
}
