package sweep

import (
	"testing"

	"dew/internal/workload"
)

// The qualitative claims of Table 3 / Figures 5-6, as executable tests:
// DEW always reduces tag comparisons, and the reduction grows with block
// size for every app. (Wall-clock speed-up is asserted only weakly — CI
// machines are noisy — but comparisons are deterministic.)
func TestComparisonReductionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep shape test skipped in -short mode")
	}
	const requests = 60_000
	for _, app := range workload.Apps() {
		var prev float64
		for i, block := range []int{4, 16, 64} {
			cell := runOne(t, Runner{}, Params{
				App: app, Seed: 1, Requests: requests,
				BlockSize: block, Assoc: 4, MaxLogSets: 9,
			})
			red := cell.ComparisonReduction()
			if red <= 0 {
				t.Errorf("%s B=%d: no comparison reduction (%.2f%%)", app.Name, block, red)
			}
			if i > 0 && red <= prev {
				t.Errorf("%s: reduction did not grow with block size: %.2f%% at B=%d vs %.2f%% before",
					app.Name, red, block, prev)
			}
			prev = red
			// The deterministic half of the Figure 5 claim: DEW performs
			// strictly less search work than the per-config baseline.
			if cell.DEWComparisons >= cell.RefComparisons {
				t.Errorf("%s B=%d: DEW comparisons %d >= baseline %d",
					app.Name, block, cell.DEWComparisons, cell.RefComparisons)
			}
		}
	}
}

// Reduction also grows with associativity at fixed block size (the
// paper's Figure 6 shows a4 < a8 bars for each group).
func TestComparisonReductionGrowsWithAssoc(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep shape test skipped in -short mode")
	}
	const requests = 60_000
	for _, app := range []workload.App{workload.CJPEG, workload.MPEG2Dec} {
		var prev float64
		for i, assoc := range []int{4, 8, 16} {
			cell := runOne(t, Runner{}, Params{
				App: app, Seed: 1, Requests: requests,
				BlockSize: 16, Assoc: assoc, MaxLogSets: 9,
			})
			red := cell.ComparisonReduction()
			if i > 0 && red <= prev {
				t.Errorf("%s: reduction did not grow with associativity: %.2f%% at A=%d vs %.2f%%",
					app.Name, red, assoc, prev)
			}
			prev = red
		}
	}
}
