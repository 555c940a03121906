package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dew/internal/store"
	"dew/internal/workload"
)

// TestRunCellTraceCacheWarm: the second identical one-cell batch is
// served whole from the result tier, bit-identical, with the cell as
// the batch's sampled warm check.
func TestRunCellTraceCacheWarm(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{App: workload.CJPEG, Seed: 1, Requests: 6000, BlockSize: 8, Assoc: 2, MaxLogSets: 4}

	var logged []string
	r := Runner{Cache: st, Logf: func(f string, a ...interface{}) {
		logged = append(logged, fmt.Sprintf(f, a...))
	}}
	cold := runOne(t, r, p)
	if cold.ResultCacheHit {
		t.Fatal("cold cell reported a cache hit")
	}
	if cold.ResultCacheKey == "" {
		t.Fatal("cold cell missing its result cache key")
	}
	// The store holds finished results only: the cold cell's stream
	// was decoded, used and dropped.
	ents, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || filepath.Ext(ents[0].Name()) != ".drs" {
		t.Fatalf("cold cell left %d cache files (want its one .drs result): %v", len(ents), ents)
	}

	warm := runOne(t, r, p)
	if !warm.ResultCacheHit || !warm.WarmVerified {
		t.Fatalf("warm cell: result hit %v, live re-verified %v; want both", warm.ResultCacheHit, warm.WarmVerified)
	}
	if warm.ResultCacheKey != cold.ResultCacheKey {
		t.Fatal("result cache key changed between identical cells")
	}
	if !reflect.DeepEqual(warm.Results, cold.Results) {
		t.Fatal("warm results differ from cold")
	}
	if warm.Verified != cold.Verified || warm.Verified == 0 {
		t.Fatalf("warm verified %d configs, cold %d", warm.Verified, cold.Verified)
	}
	if warm.Counters != cold.Counters {
		t.Fatalf("warm counters differ: %+v vs %+v", warm.Counters, cold.Counters)
	}
	hitLogged := false
	for _, l := range logged {
		if strings.Contains(l, "result cache: 1/1 cells warm") {
			hitLogged = true
		}
	}
	if !hitLogged {
		t.Fatal("result cache hit not reported in progress output")
	}
}

// TestRunCellsCacheWarm runs a small cell matrix twice against one
// store: the warm pass must serve every cell from the result tier —
// zero simulations, one sampled live re-verification — with identical
// results.
func TestRunCellsCacheWarm(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	params := []Params{
		{App: workload.CJPEG, Seed: 1, Requests: 4000, BlockSize: 8, Assoc: 2, MaxLogSets: 3},
		{App: workload.CJPEG, Seed: 1, Requests: 4000, BlockSize: 16, Assoc: 2, MaxLogSets: 3},
		{App: workload.DJPEG, Seed: 1, Requests: 4000, BlockSize: 8, Assoc: 2, MaxLogSets: 3},
	}
	r := Runner{Cache: st}
	cold, err := r.RunCells(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if sim, cached, _ := Provenance(cold); sim != len(params) || cached != 0 {
		t.Fatalf("cold provenance: %d simulated, %d cached", sim, cached)
	}
	warm, err := r.RunCells(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	sim, cached, verified := Provenance(warm)
	if sim != 0 || cached != len(params) || verified != 1 {
		t.Fatalf("warm provenance: %d simulated, %d cached, %d verified; want 0/%d/1",
			sim, cached, verified, len(params))
	}
	for i := range warm {
		if !warm[i].ResultCacheHit {
			t.Fatalf("warm cell %d (%s) missed the result cache", i, warm[i].Params)
		}
		if !reflect.DeepEqual(warm[i].Results, cold[i].Results) {
			t.Fatalf("warm cell %d results differ from cold", i)
		}
	}
}

// TestRunCellsDelta: extending a previously swept matrix simulates
// only the new cell; the overlapping cells are served from the result
// tier (one of them re-verified live by the sampled warm check).
func TestRunCellsDelta(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := []Params{
		{App: workload.CJPEG, Seed: 1, Requests: 4000, BlockSize: 8, Assoc: 2, MaxLogSets: 3},
		{App: workload.CJPEG, Seed: 1, Requests: 4000, BlockSize: 16, Assoc: 2, MaxLogSets: 3},
	}
	r := Runner{Cache: st}
	cold, err := r.RunCells(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	extended := append(append([]Params{}, base...),
		Params{App: workload.DJPEG, Seed: 1, Requests: 4000, BlockSize: 8, Assoc: 2, MaxLogSets: 3})
	delta, err := r.RunCells(context.Background(), extended)
	if err != nil {
		t.Fatal(err)
	}
	sim, cached, verified := Provenance(delta)
	if sim != 1 || cached != len(base) || verified != 1 {
		t.Fatalf("delta provenance: %d simulated, %d cached, %d verified; want 1/%d/1",
			sim, cached, verified, len(base))
	}
	if delta[2].ResultCacheHit {
		t.Fatal("the new cell reported a result cache hit")
	}
	for i := range base {
		if !reflect.DeepEqual(delta[i].Results, cold[i].Results) {
			t.Fatalf("overlapping cell %d results differ from the original run", i)
		}
	}
}

// TestRunCellsNoWarmCheck: with the sampled warm check disabled, a
// fully-warm batch performs zero simulations of any kind.
func TestRunCellsNoWarmCheck(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	params := []Params{
		{App: workload.CJPEG, Seed: 1, Requests: 4000, BlockSize: 8, Assoc: 2, MaxLogSets: 3},
		{App: workload.DJPEG, Seed: 1, Requests: 4000, BlockSize: 8, Assoc: 2, MaxLogSets: 3},
	}
	r := Runner{Cache: st, NoWarmCheck: true}
	if _, err := r.RunCells(context.Background(), params); err != nil {
		t.Fatal(err)
	}
	warm, err := r.RunCells(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	sim, cached, verified := Provenance(warm)
	if sim != 0 || cached != len(params) || verified != 0 {
		t.Fatalf("provenance: %d simulated, %d cached, %d verified; want 0/%d/0",
			sim, cached, verified, len(params))
	}
}

// TestRunCellsWarmCheckDivergence: a tampered result entry is caught
// by the sampled live re-simulation — the batch fails with the entry
// dropped, and the next run re-simulates cleanly.
func TestRunCellsWarmCheckDivergence(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	params := []Params{{App: workload.CJPEG, Seed: 1, Requests: 4000, BlockSize: 8, Assoc: 2, MaxLogSets: 3}}
	r := Runner{Cache: st}
	cold, err := r.RunCells(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}

	// Republish the cell with a falsified property counter.
	tampered := cold[0]
	tampered.Counters.Searches += 7
	r.publishCell(context.Background(), cold[0].ResultCacheKey, tampered)

	if _, err := r.RunCells(context.Background(), params); err == nil {
		t.Fatal("tampered result entry survived the warm check")
	} else if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("unexpected warm-check error: %v", err)
	}

	// The divergent entry was dropped: the rerun simulates and heals.
	healed, err := r.RunCells(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if sim, _, _ := Provenance(healed); sim != 1 {
		t.Fatalf("rerun after divergence simulated %d cells, want 1", sim)
	}
	if !reflect.DeepEqual(healed[0].Results, cold[0].Results) {
		t.Fatal("healed results differ from the original simulation")
	}
}

// TestRunSeedsWarmCheckDivergence: a multi-seed batch gets the same
// sampled warm check as a single-seed one. The sampled entry, tampered
// with, fails the batch with "diverged" and is dropped; the rerun
// re-simulates it and verifies another.
func TestRunSeedsWarmCheckDivergence(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	params := []Params{{App: workload.CJPEG, Requests: 4000, BlockSize: 8, Assoc: 2, MaxLogSets: 3}}
	seeds := Seeds(1, 2)
	r := Runner{Cache: st}
	cold, err := r.RunSeeds(context.Background(), params, seeds)
	if err != nil {
		t.Fatal(err)
	}
	cells := cold[0].Cells
	keys := []string{cells[0].ResultCacheKey, cells[1].ResultCacheKey}

	// Republish the entry the warm check samples with a falsified
	// property counter.
	tampered := cells[store.WarmCheckPick(keys)]
	tampered.Counters.Searches += 7
	r.publishCell(context.Background(), tampered.ResultCacheKey, tampered)

	if _, err := r.RunSeeds(context.Background(), params, seeds); err == nil {
		t.Fatal("tampered result entry survived the warm check")
	} else if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("unexpected warm-check error: %v", err)
	}
	if _, err := st.GetResult(context.Background(), tampered.ResultCacheKey, cellEngineName,
		r.cellSpecKey(tampered.Params)); !errors.Is(err, store.ErrMiss) {
		t.Fatalf("divergent entry still served: %v", err)
	}

	healed, err := r.RunSeeds(context.Background(), params, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if sim, cached, verified := Provenance(healed[0].Cells); sim != 1 || cached != 1 || verified != 1 {
		t.Fatalf("rerun provenance: %d simulated, %d cached, %d verified; want 1/1/1", sim, cached, verified)
	}
	for i := range cells {
		if !reflect.DeepEqual(healed[0].Cells[i].Results, cells[i].Results) {
			t.Fatalf("seed %d: healed results differ from the original simulation", seeds[i])
		}
	}
}

// TestRunCellCorruptResultFallback: a bit-flipped .drs entry reads as
// a miss — the cell re-simulates transparently and republishes, and
// the corrupt file is quarantined out of the key's path.
func TestRunCellCorruptResultFallback(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{App: workload.CJPEG, Seed: 1, Requests: 6000, BlockSize: 8, Assoc: 2, MaxLogSets: 3}
	r := Runner{Cache: st}
	cold := runOne(t, r, p)

	path := filepath.Join(dir, cold.ResultCacheKey+".drs")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	warm := runOne(t, r, p)
	if warm.ResultCacheHit {
		t.Fatal("corrupt result entry served as a hit")
	}
	if !reflect.DeepEqual(warm.Results, cold.Results) {
		t.Fatal("re-simulated results differ from the original")
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	// The re-simulation republished: a third run hits.
	if again := runOne(t, r, p); !again.ResultCacheHit {
		t.Fatal("republished result entry missed")
	}
}
