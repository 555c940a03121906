package explore

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"dew/internal/store"
	"dew/internal/trace"
)

// countingSource wraps a Source and counts how many times the
// exploration actually pulled a reader — zero on a warm run.
func countingSource(src Source, calls *atomic.Int32) Source {
	return func() trace.Reader {
		calls.Add(1)
		return src()
	}
}

// TestRunCacheWarmBitIdentical: a cold exploration populates the
// store with one result per pass and no stream; a warm one serves
// every pass from it — the only decode is the sampled live re-check's —
// and the merged statistics are bit-identical.
func TestRunCacheWarmBitIdentical(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := randomTrace(8000, 3)
	sourceID := store.TraceID(tr)

	var coldCalls atomic.Int32
	req := Request{
		Space: smallSpace(), Workers: 2,
		Source: countingSource(fromTrace(tr), &coldCalls),
		Cache:  st, SourceID: sourceID,
	}
	cold, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CellsCached != 0 {
		t.Fatalf("cold run served %d passes from the cache", cold.CellsCached)
	}
	if cold.Decodes != 1 {
		t.Fatalf("cold run decoded %d times, want 1", cold.Decodes)
	}
	if coldCalls.Load() == 0 {
		t.Fatal("cold run never pulled the source")
	}

	// Warm runs — unsharded and sharded (the shard fan-out is not part
	// of the result key).
	for _, shards := range []int{1, 2} {
		var warmCalls atomic.Int32
		req.Shards = shards
		req.Source = countingSource(fromTrace(tr), &warmCalls)
		warm, err := Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Decodes != 1 || warmCalls.Load() != 1 {
			t.Fatalf("shards=%d: warm run decoded %d times from %d source reads, want 1 for the live re-check",
				shards, warm.Decodes, warmCalls.Load())
		}
		if !reflect.DeepEqual(warm.Stats, cold.Stats) {
			t.Fatalf("shards=%d: warm statistics differ from cold", shards)
		}
		sim, cached, verified := warm.CellsSimulated, warm.CellsCached, warm.WarmVerified
		if sim != 0 || cached != warm.Passes || verified != 1 {
			t.Fatalf("shards=%d: warm provenance %d simulated, %d cached, %d verified; want 0/%d/1",
				shards, sim, cached, verified, warm.Passes)
		}
	}
	// Every shard setting shares the one result per pass, and no
	// stream is ever stored.
	ents, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != cold.Passes {
		t.Fatalf("%d cache files, want one result per pass (%d)", len(ents), cold.Passes)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".drs" {
			t.Fatalf("cache holds %s, not a result entry", e.Name())
		}
	}
}

// TestRunFullyWarmZeroWork: with the warm check disabled, a fully
// result-warm exploration builds no streams at all — zero source
// reads, zero decodes, zero simulated passes — and still reports the
// full statistics, stream shapes and kind totals.
func TestRunFullyWarmZeroWork(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := randomTrace(8000, 11)
	req := Request{
		Space: smallSpace(), Workers: 2, Kinds: true,
		Source: fromTrace(tr), Cache: st, SourceID: store.TraceID(tr),
		NoWarmCheck: true,
	}
	cold, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CellsSimulated != cold.Passes || cold.CellsCached != 0 {
		t.Fatalf("cold provenance: %d simulated, %d cached", cold.CellsSimulated, cold.CellsCached)
	}

	var warmCalls atomic.Int32
	req.Source = countingSource(fromTrace(tr), &warmCalls)
	warm, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if warmCalls.Load() != 0 {
		t.Fatalf("fully-warm run pulled the source %d times, want 0", warmCalls.Load())
	}
	if warm.Decodes != 0 {
		t.Fatalf("fully-warm run: %d decodes, want 0", warm.Decodes)
	}
	if warm.CellsSimulated != 0 || warm.CellsCached != warm.Passes || warm.WarmVerified != 0 {
		t.Fatalf("fully-warm provenance: %d simulated, %d cached, %d verified",
			warm.CellsSimulated, warm.CellsCached, warm.WarmVerified)
	}
	if !reflect.DeepEqual(warm.Stats, cold.Stats) {
		t.Fatal("fully-warm statistics differ from cold")
	}
	if !reflect.DeepEqual(warm.StreamCompression, cold.StreamCompression) {
		t.Fatalf("fully-warm stream shapes differ: %v vs %v", warm.StreamCompression, cold.StreamCompression)
	}
	if warm.KindTotals != cold.KindTotals {
		t.Fatalf("fully-warm kind totals differ: %v vs %v", warm.KindTotals, cold.KindTotals)
	}
}

// TestRunCacheKindsKeySeparation: a kind-free and a kind-preserving
// exploration of the same trace must not share a result entry.
func TestRunCacheKindsKeySeparation(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := randomTrace(4000, 5)
	req := Request{
		Space: smallSpace(), Workers: 2,
		Source: fromTrace(tr), Cache: st, SourceID: store.TraceID(tr),
	}
	plain, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Kinds = true
	kinds, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if kinds.CellsCached != 0 || kinds.CellsSimulated != kinds.Passes {
		t.Fatalf("kind-preserving run served %d passes from kind-free entries", kinds.CellsCached)
	}
	if ds, err := st.DiskStats(); err != nil || ds.Entries != plain.Passes+kinds.Passes {
		t.Fatalf("kind axis is not part of the result key: %+v (err %v)", ds, err)
	}
	if !reflect.DeepEqual(plain.Stats, kinds.Stats) {
		t.Fatal("kind channel changed replacement statistics")
	}
}

// TestRunCacheCorruptFallback: a corrupted pass record must be
// quarantined and its pass transparently re-simulated — same results,
// no error — and the re-published record serves the next run.
func TestRunCacheCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := randomTrace(6000, 7)
	req := Request{
		Space: smallSpace(), Workers: 2,
		Source: fromTrace(tr), Cache: st, SourceID: store.TraceID(tr),
	}
	cold, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte mid-record.
	paths, err := filepath.Glob(filepath.Join(dir, "*.drs"))
	if err != nil || len(paths) != cold.Passes {
		t.Fatalf("%d pass records (err %v), want %d", len(paths), err, cold.Passes)
	}
	path := paths[0]
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x20
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	again, err := Run(context.Background(), req)
	if err != nil {
		t.Fatalf("run over a corrupt entry: %v", err)
	}
	if again.CellsSimulated != 1 || again.CellsCached != cold.Passes-1 {
		t.Fatalf("fallback: %d passes simulated, %d cached; want 1 and %d",
			again.CellsSimulated, again.CellsCached, cold.Passes-1)
	}
	if again.Decodes != 1 {
		t.Fatalf("fallback decoded %d times, want 1", again.Decodes)
	}
	if !reflect.DeepEqual(again.Stats, cold.Stats) {
		t.Fatal("fallback statistics differ")
	}
	if q := st.Stats().Quarantines; q != 1 {
		t.Fatalf("quarantine counter = %d, want 1", q)
	}
	// And the re-published entry serves the next run.
	warm, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CellsSimulated != 0 || warm.CellsCached != cold.Passes {
		t.Fatalf("re-published record missed: %d passes simulated", warm.CellsSimulated)
	}
	if !reflect.DeepEqual(warm.Stats, cold.Stats) {
		t.Fatal("post-fallback warm statistics differ")
	}
}
