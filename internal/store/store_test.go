package store

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dew/internal/trace"
)

func testTrace(seed uint64, n int) trace.Trace {
	rng := rand.New(rand.NewSource(int64(seed)))
	tr := make(trace.Trace, n)
	block := uint64(0)
	for i := range tr {
		if rng.Intn(3) == 0 {
			block = uint64(rng.Intn(100))
		}
		tr[i] = trace.Access{Addr: block*64 + uint64(rng.Intn(64)), Kind: trace.Kind(rng.Intn(3))}
	}
	return tr
}

func openTestStore(t testing.TB, opt Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKeyDistinctness(t *testing.T) {
	keys := map[string]string{}
	add := func(desc, k string) {
		if prev, dup := keys[k]; dup {
			t.Fatalf("key collision: %s and %s", prev, desc)
		}
		keys[k] = desc
		if err := validKey(k); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
	}
	add("base", Key("file:abc", 16, 0, false))
	add("block", Key("file:abc", 32, 0, false))
	add("shard", Key("file:abc", 16, 2, false))
	add("kinds", Key("file:abc", 16, 0, true))
	add("source", Key("file:abd", 16, 0, false))
	add("app", Key(AppID("CJPEG", 1, 1000), 16, 0, false))
	add("app-seed", Key(AppID("CJPEG", 2, 1000), 16, 0, false))
	add("trace", Key(TraceID(testTrace(1, 10)), 16, 0, false))
	add("trace2", Key(TraceID(testTrace(2, 10)), 16, 0, false))
	if Key("x", 16, 0, false) != Key("x", 16, 0, false) {
		t.Fatal("key derivation is not deterministic")
	}
}

func TestTraceIDContent(t *testing.T) {
	a := testTrace(3, 50)
	b := append(trace.Trace{}, a...)
	if TraceID(a) != TraceID(b) {
		t.Fatal("equal traces produced different IDs")
	}
	b[25].Kind = (b[25].Kind + 1) % 3
	if TraceID(a) == TraceID(b) {
		t.Fatal("kind change did not change the ID")
	}
}

func TestFileID(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.din")
	p2 := filepath.Join(dir, "b.din")
	if err := os.WriteFile(p1, []byte("0 12345678\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, []byte("0 12345678\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	id1, err := FileID(p1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := FileID(p2)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatal("identical bytes under different names produced different IDs")
	}
	if _, err := FileID(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("FileID of a missing file succeeded")
	}
}

// putAged publishes rb under the result key of src and backdates the
// entry by age, so LRU order is explicit even on coarse filesystem
// clocks. It returns the key.
func putAged(t *testing.T, s *Store, src string, rb *ResultBlob, age time.Duration) string {
	t.Helper()
	key := ResultKey(Key(src, 16, 0, false), rb.Engine, rb.SpecKey)
	if err := s.PutResult(context.Background(), key, rb); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-age)
	if err := os.Chtimes(s.resultPath(key), past, past); err != nil {
		t.Fatal(err)
	}
	return key
}

// resultBlobSize is the encoded size of rb.
func resultBlobSize(t *testing.T, rb *ResultBlob) int64 {
	t.Helper()
	blob, err := rb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(blob))
}

// TestPutGetRoundTrip publishes a DEW and a reference result entry and
// loads each back bit-identically, from the publishing store and from a
// second store opened on the same directory (another process, say).
func TestPutGetRoundTrip(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	blobs := []*ResultBlob{plainResultBlob(), refResultBlob()}
	var keys []string
	var total int64
	for _, rb := range blobs {
		key := ResultKey(Key(TraceID(testTrace(5, 5000)), 64, 0, rb.HasRef), rb.Engine, rb.SpecKey)
		if _, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); !errors.Is(err, ErrMiss) {
			t.Fatalf("%s: GetResult before Put: %v, want ErrMiss", rb.Engine, err)
		}
		if err := s.PutResult(ctx, key, rb); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		total += resultBlobSize(t, rb)
	}
	other, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{s, other} {
		for i, rb := range blobs {
			got, err := st.GetResult(ctx, keys[i], rb.Engine, rb.SpecKey)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, rb) {
				t.Fatalf("%s: loaded result differs from published result", rb.Engine)
			}
		}
	}
	if st := s.Stats(); st.ResultHits != 2 || st.ResultMisses != 2 || st.ResultStores != 2 {
		t.Fatalf("stats = %+v, want 2 result hits, 2 misses, 2 stores", st)
	}
	if st := other.Stats(); st.ResultHits != 2 || st.ResultMisses != 0 || st.ResultStores != 0 {
		t.Fatalf("second store's stats = %+v, want 2 result hits only", st)
	}
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 2 || ds.Bytes != total || ds.Quarantined != 0 || ds.Temp != 0 {
		t.Fatalf("disk stats = %+v, want 2 entries of %d bytes", ds, total)
	}
}

func TestGetRejectsBadKey(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	rb := plainResultBlob()
	for _, key := range []string{"", "short", "../../../../etc/passwd", Key("x", 16, 0, false) + "ff"} {
		if _, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); err == nil || errors.Is(err, ErrMiss) {
			t.Fatalf("GetResult(%q) = %v, want a key error", key, err)
		}
		if err := s.PutResult(ctx, key, rb); err == nil {
			t.Fatalf("PutResult(%q) succeeded", key)
		}
		if err := s.DropResult(key); err == nil {
			t.Fatalf("DropResult(%q) succeeded", key)
		}
	}
}

// TestCorruptEntryQuarantine truncates a published entry: the load must
// fail typed (matching the trace package's sentinel), quarantine the
// file where DiskStats counts it as dead, and GC must reclaim it while
// a re-publish heals the entry.
func TestCorruptEntryQuarantine(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	rb := refResultBlob()
	key := ResultKey(Key(TraceID(testTrace(6, 4000)), 32, 0, true), rb.Engine, rb.SpecKey)
	if err := s.PutResult(ctx, key, rb); err != nil {
		t.Fatal(err)
	}
	path := s.resultPath(key)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	var ce *CorruptEntryError
	if _, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); !errors.As(err, &ce) {
		t.Fatalf("GetResult of corrupt entry = %v, want CorruptEntryError", err)
	} else if !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("corrupt entry error %v does not match trace.ErrCorrupt", err)
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("corrupt entry was not quarantined: %v", err)
	}
	if _, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); !errors.Is(err, ErrMiss) {
		t.Fatalf("lookup after quarantine = %v, want ErrMiss", err)
	}
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 0 || ds.Quarantined != 1 || ds.QuarantinedBytes != int64(len(blob)-3) {
		t.Fatalf("disk stats after quarantine = %+v", ds)
	}

	// The fallback path: the caller re-simulates and re-publishes.
	if err := s.PutResult(ctx, key, rb); err != nil {
		t.Fatal(err)
	}
	if removed, _, err := s.GC(0); err != nil || removed != 1 {
		t.Fatalf("gc removed %d files (err %v), want the quarantined one", removed, err)
	}
	if got, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); err != nil || !reflect.DeepEqual(got, rb) {
		t.Fatalf("re-published entry: %v", err)
	}
	if q := s.Stats().Quarantines; q != 1 {
		t.Fatalf("quarantine counter = %d, want 1", q)
	}
}

// TestGeometryMismatchQuarantine: an entry whose echoed derivation
// disagrees with the lookup's — another engine, or another cache
// geometry in the spec key — is corruption, not a hit. It is
// quarantined, the lookup under the right derivation then misses, and
// a re-publish heals the entry.
func TestGeometryMismatchQuarantine(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	rb := plainResultBlob()
	key := ResultKey(Key("file:whatever", 16, 0, false), rb.Engine, rb.SpecKey)
	mismatches := []struct{ engine, specKey string }{
		{"ref", rb.SpecKey},
		{rb.Engine, "sets=0..4,assoc=2,block=32,policy=FIFO"},
	}
	for i, m := range mismatches {
		if err := s.PutResult(ctx, key, rb); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptEntryError
		if _, err := s.GetResult(ctx, key, m.engine, m.specKey); !errors.As(err, &ce) {
			t.Fatalf("lookup as %s %q = %v, want CorruptEntryError", m.engine, m.specKey, err)
		}
		if _, err := os.Stat(s.resultPath(key) + quarantineSuffix); err != nil {
			t.Fatalf("mismatched entry was not quarantined: %v", err)
		}
		if _, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); !errors.Is(err, ErrMiss) {
			t.Fatalf("lookup after quarantine = %v, want ErrMiss", err)
		}
		if q := s.Stats().Quarantines; q != uint64(i+1) {
			t.Fatalf("quarantine counter = %d, want %d", q, i+1)
		}
	}
	if err := s.PutResult(ctx, key, rb); err != nil {
		t.Fatal(err)
	}
	if got, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); err != nil || !reflect.DeepEqual(got, rb) {
		t.Fatalf("re-published entry: %v", err)
	}
}

// TestEviction publishes entries past the byte cap and checks LRU
// order: the least recently touched entries go first, the newest
// survives.
func TestEviction(t *testing.T) {
	rb := plainResultBlob()
	// Cap at two entries' worth.
	s := openTestStore(t, Options{MaxBytes: resultBlobSize(t, rb)*2 + 16})
	var keys []string
	for i, src := range []string{"file:a", "file:b", "file:c"} {
		keys = append(keys, putAged(t, s, src, rb, time.Duration(3-i)*time.Hour))
	}
	// Publishing a fourth entry must evict the stalest until the cap
	// holds.
	newest := putAged(t, s, "file:d", rb, 0)
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 2 {
		t.Fatalf("%d live entries after eviction, want 2", ds.Entries)
	}
	for _, gone := range keys[:2] {
		if _, err := os.Stat(s.resultPath(gone)); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("a stale entry survived the cap")
		}
	}
	for _, kept := range []string{keys[2], newest} {
		if _, err := os.Stat(s.resultPath(kept)); err != nil {
			t.Fatalf("a recent entry was evicted: %v", err)
		}
	}
	if ev := s.Stats().Evictions; ev != 2 {
		t.Fatalf("eviction counter = %d, want 2", ev)
	}
}

func TestGCAndClear(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	rb := plainResultBlob()
	key := putAged(t, s, "file:live", rb, 0)
	// Plant a quarantined file, an abandoned temp file and a fresh one
	// (another publisher's, mid-write).
	if err := os.WriteFile(filepath.Join(s.Dir(), key+resultSuffix+quarantineSuffix), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(s.Dir(), tmpPrefix+"orphan")
	if err := os.WriteFile(orphan, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-2 * tmpReapAge)
	if err := os.Chtimes(orphan, stale, stale); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(s.Dir(), tmpPrefix+"inflight")
	if err := os.WriteFile(fresh, []byte("half a blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 1 || ds.Quarantined != 1 || ds.Temp != 2 {
		t.Fatalf("disk stats before gc = %+v", ds)
	}

	removed, reclaimed, err := s.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 || reclaimed <= 0 {
		t.Fatalf("gc removed %d files (%d bytes), want the 2 junk files", removed, reclaimed)
	}
	if _, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); err != nil {
		t.Fatalf("gc removed a live entry: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("gc reaped a fresh temp file: %v", err)
	}

	removed, _, err = s.Clear()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("clear removed %d files, want the live entry and the temp file", removed)
	}
	if _, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); !errors.Is(err, ErrMiss) {
		t.Fatalf("GetResult after clear = %v, want ErrMiss", err)
	}
}

// TestGCDuringPublish: a GC that runs while another process is still
// writing its publish's temp file leaves the file alone, so the
// publish's rename still lands a loadable entry.
func TestGCDuringPublish(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	rb := refResultBlob()
	key := ResultKey(Key("file:concurrent", 32, 0, true), rb.Engine, rb.SpecKey)
	blob, err := rb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The other publisher's temp file, half written.
	f, err := os.CreateTemp(s.Dir(), tmpPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(blob[:len(blob)/2]); err != nil {
		t.Fatal(err)
	}
	if removed, _, err := s.GC(0); err != nil || removed != 0 {
		t.Fatalf("gc during an open publish removed %d files (err %v), want 0", removed, err)
	}
	if _, err := f.Write(blob[len(blob)/2:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(f.Name(), s.resultPath(key)); err != nil {
		t.Fatalf("publish after a concurrent gc: %v", err)
	}
	got, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey)
	if err != nil {
		t.Fatalf("published entry does not load: %v", err)
	}
	if !reflect.DeepEqual(got, rb) {
		t.Fatal("published entry differs")
	}
}

// TestGCReclaimsLegacyStreamEntries: stream entries an earlier build
// published (<key>.dbs, and quarantined <key>.dbs.bad) are dead files —
// outside the live totals and the size cap, reclaimed by GC and Clear —
// while the result entries next to them keep serving.
func TestGCReclaimsLegacyStreamEntries(t *testing.T) {
	rb := plainResultBlob()
	size := resultBlobSize(t, rb)
	// The cap holds both result entries but not the stream entry.
	s := openTestStore(t, Options{MaxBytes: 2 * size})
	ctx := context.Background()
	streamKey := Key("file:old", 16, 0, false)
	legacy := filepath.Join(s.Dir(), streamKey+legacyStreamSuffix)
	legacyBad := filepath.Join(s.Dir(), Key("file:older", 16, 0, false)+legacyStreamSuffix+quarantineSuffix)
	junk := make([]byte, 4*size)
	for _, p := range []string{legacy, legacyBad} {
		if err := os.WriteFile(p, junk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a := putAged(t, s, "file:old", rb, time.Hour)
	b := putAged(t, s, "file:new", rb, 0)
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 2 || ds.Bytes != 2*size || ds.Quarantined != 2 || ds.QuarantinedBytes != 2*int64(len(junk)) {
		t.Fatalf("disk stats with legacy stream entries = %+v", ds)
	}
	if ev := s.Stats().Evictions; ev != 0 {
		t.Fatalf("legacy stream entries pushed %d results out of the cap", ev)
	}
	removed, reclaimed, err := s.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 || reclaimed != 2*int64(len(junk)) {
		t.Fatalf("gc removed %d files (%d bytes), want the 2 legacy stream files", removed, reclaimed)
	}
	for _, p := range []string{legacy, legacyBad} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("legacy file %s survived gc", filepath.Base(p))
		}
	}
	for _, key := range []string{a, b} {
		if _, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); err != nil {
			t.Fatalf("gc removed a live result: %v", err)
		}
	}
	// Clear reclaims them too.
	if err := os.WriteFile(legacy, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if removed, _, err := s.Clear(); err != nil || removed != 3 {
		t.Fatalf("clear removed %d files (err %v), want 2 results and the legacy stream file", removed, err)
	}
}

// TestGCEnforcesCap: GC with an explicit budget evicts LRU entries
// even when the store itself is uncapped.
func TestGCEnforcesCap(t *testing.T) {
	s := openTestStore(t, Options{})
	rb := plainResultBlob()
	var keys []string
	for i, src := range []string{"file:a", "file:b", "file:c"} {
		keys = append(keys, putAged(t, s, src, rb, time.Duration(4-i)*time.Hour))
	}
	removed, _, err := s.GC(resultBlobSize(t, rb) + 8)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("gc removed %d entries, want 2", removed)
	}
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 1 {
		t.Fatalf("%d entries after capped gc, want 1", ds.Entries)
	}
	// The most recently touched entry is the survivor.
	if _, err := os.Stat(s.resultPath(keys[2])); err != nil {
		t.Fatal("most recent entry did not survive the capped gc")
	}
}
