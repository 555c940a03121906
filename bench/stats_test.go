package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected cut points are Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's spreads are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 1.2, 9.9}, 1.2, 3.1, 9.9},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2.5, 2.5, 2.5, 2.5}, 2.5, 2.5, 2.5},
		{[]float64{0.31, 0.43, 0.32, 0.33, 0.35, 0.32, 0.30, 0.34, 0.32, 0.36, 0.33, 0.32}, 0.32, 0.325, 0.3475},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty median is not NaN")
	}
	// (8.25 - 2.75) / 5.5 = 1.
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread %v, want 1", s)
	}
	if s := spread([]float64{4.2}); s != 0 {
		t.Errorf("single-sample spread %v, want 0", s)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00}
	for _, tc := range []struct {
		name          string
		base, new     []float64
		worseIsHigher bool
		want          string
	}{
		{"same", steady, steady, true, verdictUnchanged},
		{"within bound", steady, scale(steady, 1.04), true, verdictUnchanged},
		{"worse beyond bound", steady, scale(steady, 1.2), true, verdictWorse},
		{"every new run beats every base run", steady, scale(steady, 0.9), true, verdictBetter},
		{"better beyond bound, overlapping runs", []float64{1, 1, 1, 1, 1, 1, 1.01}, []float64{0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 1.5}, true, verdictBetter},
		{"noisy base", []float64{0.5, 1, 1.5, 0.7, 1.3}, steady, true, verdictUnresolved},
		{"noisy new, still all better", steady, []float64{0.5, 0.6, 0.9, 0.55}, true, verdictBetter},
		{"higher is better", steady, scale(steady, 0.8), false, verdictWorse},
	} {
		got, _ := verdict(tc.base, tc.new, 0.1, tc.worseIsHigher)
		if got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	if _, change := verdict([]float64{2}, []float64{3}, 0.1, true); !near(change, 0.5) {
		t.Errorf("change %v, want +0.5", change)
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
