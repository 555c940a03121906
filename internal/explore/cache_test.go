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
// store, a warm one loads it — zero decodes, zero source reads — and
// the merged statistics are bit-identical.
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
	if cold.CacheHit {
		t.Fatal("cold run reported a cache hit")
	}
	if cold.CacheKey == "" {
		t.Fatal("cold run has no cache key")
	}
	if cold.Decodes != 1 {
		t.Fatalf("cold run decoded %d times, want 1", cold.Decodes)
	}
	if coldCalls.Load() == 0 {
		t.Fatal("cold run never pulled the source")
	}

	// Warm runs — unsharded and sharded (the sharded path re-derives
	// its partition from the cached unsharded finest-rung stream).
	for _, shards := range []int{1, 2} {
		var warmCalls atomic.Int32
		req.Shards = shards
		req.Source = countingSource(fromTrace(tr), &warmCalls)
		warm, err := Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.CacheHit {
			t.Fatalf("shards=%d: warm run missed the cache", shards)
		}
		if warm.Decodes != 0 {
			t.Fatalf("shards=%d: warm run decoded %d times, want 0", shards, warm.Decodes)
		}
		if warmCalls.Load() != 0 {
			t.Fatalf("shards=%d: warm run pulled the source %d times, want 0", shards, warmCalls.Load())
		}
		if warm.CacheKey != cold.CacheKey {
			t.Fatalf("shards=%d: cache key changed between runs", shards)
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
	// Every shard setting shares the one finest-rung stream (shardLog
	// is not part of either tier's key), so exactly one stream entry
	// and one result entry per pass exist.
	ds, err := st.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.StreamEntries != 1 {
		t.Fatalf("%d stream entries, want 1 shared across shard settings", ds.StreamEntries)
	}
	if ds.ResultEntries != cold.Passes {
		t.Fatalf("%d result entries, want one per pass (%d)", ds.ResultEntries, cold.Passes)
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
	if warm.Decodes != 0 || warm.CacheHit {
		t.Fatalf("fully-warm run: %d decodes, stream hit=%v; want 0 and false", warm.Decodes, warm.CacheHit)
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
// exploration of the same trace must not share an entry.
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
	if kinds.CacheHit {
		t.Fatal("kind-preserving run hit the kind-free entry")
	}
	if plain.CacheKey == kinds.CacheKey {
		t.Fatal("kind axis is not part of the cache key")
	}
	if !reflect.DeepEqual(plain.Stats, kinds.Stats) {
		t.Fatal("kind channel changed replacement statistics")
	}
}

// TestRunCacheCorruptFallback: a corrupted entry must be quarantined
// and transparently re-decoded — same results, no error, no hit.
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

	// Flip one byte mid-entry.
	path := filepath.Join(dir, cold.CacheKey+".dbs")
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
	if again.CacheHit {
		t.Fatal("corrupt entry served as a hit")
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
	if !warm.CacheHit {
		t.Fatal("re-published entry missed")
	}
	if !reflect.DeepEqual(warm.Stats, cold.Stats) {
		t.Fatal("post-fallback warm statistics differ")
	}
}
