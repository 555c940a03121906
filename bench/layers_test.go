package main

import (
	"testing"

	"dew/bench/span"
)

func TestLayerMetrics(t *testing.T) {
	const mib = 1 << 20
	// A 100 ns run: a decode batch overlapping two passes that ran side
	// by side, then a fold with a nested pass.
	run := &span.Run{
		Spans: []span.Span{
			{Name: "cli.run", Start: 0, End: 100, Parent: -1, Alloc: 10 * mib},
			{Name: "trace.decode", Start: 10, End: 30, Parent: 0, Alloc: -1},
			{Name: "engine.simulate", Start: 20, End: 60, Parent: 0, Alloc: -1},
			{Name: "engine.simulate", Start: 50, End: 70, Parent: 0, Alloc: -1},
			{Name: "trace.fold", Start: 75, End: 95, Parent: 0, Alloc: 3 * mib},
			{Name: "engine.simulate", Start: 80, End: 90, Parent: 4, Alloc: 1 * mib},
		},
		Counts: map[string]float64{"engine.workers": 2, "engine.access_passes": 70, "explore.passes": 28},
	}
	m, err := layerMetrics(run)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"cli.traced_s":              100e-9,
		"cli.span_coverage_frac":    0.8,
		"cli.self_frac":             0.2,
		"trace.self_frac":           0.3, // [10,30] plus the fold's [75,80] and [90,95]
		"engine.self_frac":          0.6, // [20,70] and [80,90]: side-by-side passes count once
		"trace.decode_frac":         0.2,
		"trace.fold_frac":           0.1,
		"refsim.self_frac":          0,
		"engine.worker_busy_frac":   70.0 / (2 * 60),
		"engine.parallel_passes":    2,
		"engine.maccess_pass_per_s": 1000,
		"cli.alloc_mb":              7,
		"trace.alloc_mb":            2,
		"engine.alloc_mb":           1,
		"explore.passes":            28,
		"sweep.cells":               0,
	} {
		if got := m[name]; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for name := range knownLayerMetrics() {
		if _, ok := m[name]; !ok && name != residualMetric {
			t.Errorf("metric %s missing", name)
		}
	}
	if _, err := layerMetrics(&span.Run{}); err == nil {
		t.Error("a run without spans was accepted")
	}
}
