package main

import (
	"context"
	"io"
	"path/filepath"
	"testing"
	"time"
)

// TestQuickSmoke runs every workload end to end at 20k accesses with one
// run of each step — set-up, oracle, timed run and traced run — and
// checks that every metric BENCHMARK.json names comes out, that nothing
// failed, and that the traced spans cover the traced run.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tools and runs every workload")
	}
	start := time.Now()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	b := &bench{root: root, bin: filepath.Join(dir, "bin"), work: filepath.Join(dir, "work"),
		seed: 1, quick: true, env: childEnv(), log: io.Discard}
	ctx := context.Background()
	if err := b.buildTools(ctx); err != nil {
		t.Fatal(err)
	}
	p := plan{setupReps: 1, runs: budget{min: 1}, traced: budget{min: 1}}
	for _, w := range workloads {
		res, err := b.runWorkload(ctx, w, p)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed > 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.name, res.Failed, res.Attempted, res.Errors)
		}
		for _, m := range spec.EndToEnd {
			if len(res.E2E[m.Name]) == 0 {
				t.Errorf("%s: no %s sample", w.name, m.Name)
			}
		}
		for _, m := range spec.PerLayer {
			if len(res.Layers[m.Name]) == 0 {
				t.Errorf("%s: no %s sample", w.name, m.Name)
			}
		}
		if c := median(res.Layers["cli.span_coverage_frac"]); c < 0.8 {
			t.Errorf("%s: spans cover %.2f of the traced run, want at least 0.8", w.name, c)
		}
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("quick run took %v, want under 30s", d)
	}
}
