package main

import (
	"math"
	"slices"
	"sort"
)

// quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default "exclusive" method, so spreads reported here match the
// ones a reader recomputes from the same samples. A single sample is
// its own quartiles; an empty slice yields NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), which is also the second quartile; NaN for an
// empty slice.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// spread is the interquartile distance of xs as a share of its median:
// the run-to-run noise the bounds are judged against. Zero for a
// constant or single-sample metric.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 || len(xs) < 2 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// Verdicts of one (metric, workload) comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict judges new samples against base samples of one metric whose
// regression bound is bound (a share of the base median). worseIsHigher
// orients the metric. The rules are the benchmark's contract:
//
//   - every new sample beats every base sample: better, whatever the
//     noise;
//   - otherwise, when either side's quartile spread exceeds the bound,
//     the comparison cannot resolve a change of that size: unresolved;
//   - otherwise the median change decides: worse or better beyond the
//     bound, unchanged within it.
//
// It also returns the relative median change, positive when worse.
func verdict(base, new []float64, bound float64, worseIsHigher bool) (string, float64) {
	bm, nm := median(base), median(new)
	change := 0.0
	if bm != 0 {
		change = (nm - bm) / math.Abs(bm)
	} else if nm != 0 {
		change = math.Inf(1)
	}
	if !worseIsHigher {
		change = -change
	}
	if len(base) > 0 && len(new) > 0 && allBeat(base, new, worseIsHigher) {
		return verdictBetter, change
	}
	if spread(base) > bound || spread(new) > bound {
		return verdictUnresolved, change
	}
	switch {
	case change > bound:
		return verdictWorse, change
	case change < -bound:
		return verdictBetter, change
	}
	return verdictUnchanged, change
}

// allBeat reports whether every new sample is strictly better than every
// base sample.
func allBeat(base, new []float64, worseIsHigher bool) bool {
	if worseIsHigher {
		return slices.Max(new) < slices.Min(base)
	}
	return slices.Min(new) > slices.Max(base)
}
