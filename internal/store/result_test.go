package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"testing"
	"time"

	"dew/internal/cache"
	"dew/internal/refsim"
	"dew/internal/trace"
)

func mkConfig(sets, assoc, block int) cache.Config {
	cfg, err := cache.NewConfig(sets, assoc, block)
	if err != nil {
		panic(err)
	}
	return cfg
}

func plainResultBlob() *ResultBlob {
	return &ResultBlob{
		Engine:  "dew",
		SpecKey: "sets=0..4,assoc=2,block=16,policy=FIFO",
		Scalars: []uint64{12, 34, 56},
		Records: []ResultRecord{
			{Config: mkConfig(1, 2, 16), Stats: cache.Stats{Accesses: 1000, Misses: 40}},
			{Config: mkConfig(16, 2, 16), Stats: cache.Stats{Accesses: 1000, Misses: 7}},
		},
	}
}

func refResultBlob() *ResultBlob {
	st := cache.Stats{Accesses: 500, Misses: 31}
	ref := &refsim.Stats{
		Stats:            st,
		AccessesByKind:   [3]uint64{300, 150, 50},
		MissesByKind:     [3]uint64{20, 9, 2},
		CompulsoryMisses: 11,
		Evictions:        15,
		TagComparisons:   1984,
	}
	tr := &refsim.Traffic{BytesFromMemory: 992, BytesToMemory: 480, Writebacks: 15}
	return &ResultBlob{
		Engine:  "ref",
		SpecKey: "sets=4..4,assoc=2,block=32,policy=LRU,write=write-back,alloc=write-allocate,store-bytes=4",
		HasRef:  true,
		Scalars: []uint64{500},
		Records: []ResultRecord{
			{Config: mkConfig(16, 2, 32), Stats: st, Ref: ref, Traffic: tr},
		},
	}
}

func TestResultKeyDistinctness(t *testing.T) {
	stream := Key("file:abc", 16, 0, false)
	keys := map[string]string{}
	add := func(desc, k string) {
		if prev, dup := keys[k]; dup {
			t.Fatalf("result key collision: %s and %s", prev, desc)
		}
		keys[k] = desc
		if err := validKey(k); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
	}
	add("base", ResultKey(stream, "dew", "spec"))
	add("stream", ResultKey(Key("file:abc", 32, 0, false), "dew", "spec"))
	add("kinds", ResultKey(Key("file:abc", 16, 0, true), "dew", "spec"))
	add("engine", ResultKey(stream, "ref", "spec"))
	add("spec", ResultKey(stream, "dew", "spec2"))
	// The component separators keep adjacent fields from gluing.
	add("shifted", ResultKey(stream, "dews", "pec"))
	if ResultKey(stream, "dew", "spec") != ResultKey(stream, "dew", "spec") {
		t.Fatal("result key derivation is not deterministic")
	}
}

func TestResultBlobRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		rb   *ResultBlob
	}{
		{"plain", plainResultBlob()},
		{"ref", refResultBlob()},
		{"empty", &ResultBlob{Engine: "dew", SpecKey: "s"}},
	} {
		data, err := tc.rb.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := &ResultBlob{}
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.rb) {
			t.Fatalf("%s: decoded blob differs:\n%+v\nvs\n%+v", tc.name, got, tc.rb)
		}
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%s: re-marshal is not byte-identical", tc.name)
		}
	}
}

func TestResultBlobMarshalValidation(t *testing.T) {
	rb := refResultBlob()
	rb.Records[0].Ref = nil
	if _, err := rb.MarshalBinary(); err == nil {
		t.Fatal("ref-flagged blob without a ref section marshaled")
	}
	rb = refResultBlob()
	rb.Records[0].Ref.Misses++
	if _, err := rb.MarshalBinary(); err == nil {
		t.Fatal("ref stats disagreeing with record stats marshaled")
	}
	rb = plainResultBlob()
	rb.Engine = string(make([]byte, maxResultEngine+1))
	if _, err := rb.MarshalBinary(); err == nil {
		t.Fatal("oversized engine name marshaled")
	}
}

func TestResultBlobUnmarshalRejects(t *testing.T) {
	valid, err := plainResultBlob().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// restamp recomputes the CRC trailer so a mutation exercises the
	// decoder's semantic checks instead of the checksum.
	restamp := func(data []byte) []byte {
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
		return data
	}
	cases := map[string][]byte{
		"empty":     {},
		"truncated": valid[:8],
		"bad magic": restamp(append([]byte("XXX1"), append([]byte{}, valid[4:]...)...)),
		"bad crc": func() []byte {
			d := append([]byte{}, valid...)
			d[len(d)/2] ^= 0x20
			return d
		}(),
		"bad version": func() []byte {
			d := append([]byte{}, valid...)
			d[4] = 9
			return restamp(d)
		}(),
		"unknown flags": func() []byte {
			d := append([]byte{}, valid...)
			d[5] = 0x80
			return restamp(d)
		}(),
		"trailing bytes": func() []byte {
			d := append([]byte{}, valid[:len(valid)-4]...)
			d = append(d, 0)
			return restamp(append(d, 0, 0, 0, 0))
		}(),
		"misses exceed accesses": func() []byte {
			rb := plainResultBlob()
			rb.Records[0].Stats = cache.Stats{Accesses: 5, Misses: 9}
			d, err := rb.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			return d
		}(),
	}
	for name, data := range cases {
		if err := (&ResultBlob{}).UnmarshalBinary(data); err == nil {
			t.Errorf("%s: blob was accepted", name)
		}
	}
}

func TestResultPutGetDrop(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	rb := plainResultBlob()
	key := ResultKey(Key("file:x", 16, 0, false), rb.Engine, rb.SpecKey)

	if _, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); !errors.Is(err, ErrMiss) {
		t.Fatalf("GetResult before Put = %v, want ErrMiss", err)
	}
	if err := s.PutResult(ctx, key, rb); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rb) {
		t.Fatal("loaded result differs from published result")
	}
	st := s.Stats()
	if st.ResultHits != 1 || st.ResultMisses != 1 || st.ResultStores != 1 {
		t.Fatalf("stats = %+v, want 1 result hit / miss / store", st)
	}
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.ResultEntries != 1 || ds.ResultBytes <= 0 || ds.StreamEntries != 0 {
		t.Fatalf("disk stats = %+v, want one result entry", ds)
	}

	// An entry whose echoed engine/spec disagree with the caller's
	// derivation is corruption: quarantined, typed error.
	var ce *CorruptEntryError
	if _, err := s.GetResult(ctx, key, rb.Engine, "some-other-spec"); !errors.As(err, &ce) {
		t.Fatalf("spec-echo mismatch = %v, want CorruptEntryError", err)
	}
	if _, err := os.Stat(s.resultPath(key) + quarantineSuffix); err != nil {
		t.Fatalf("mismatched entry was not quarantined: %v", err)
	}

	if err := s.PutResult(ctx, key, rb); err != nil {
		t.Fatal(err)
	}
	if err := s.DropResult(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); !errors.Is(err, ErrMiss) {
		t.Fatalf("GetResult after Drop = %v, want ErrMiss", err)
	}
	if err := s.DropResult(key); err != nil {
		t.Fatalf("DropResult of a missing entry: %v", err)
	}
}

func TestResultCorruptQuarantine(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	rb := refResultBlob()
	key := ResultKey(Key("file:y", 32, 0, true), rb.Engine, rb.SpecKey)
	if err := s.PutResult(ctx, key, rb); err != nil {
		t.Fatal(err)
	}
	path := s.resultPath(key)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x10
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var ce *CorruptEntryError
	if _, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); !errors.As(err, &ce) {
		t.Fatalf("GetResult of corrupt entry = %v, want CorruptEntryError", err)
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("corrupt entry was not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt entry still live: %v", err)
	}
	if q := s.Stats().Quarantines; q != 1 {
		t.Fatalf("quarantine counter = %d, want 1", q)
	}
	// Re-publishing heals (the simulation fallback at the caller layer).
	if err := s.PutResult(ctx, key, rb); err != nil {
		t.Fatal(err)
	}
	if got, err := s.GetResult(ctx, key, rb.Engine, rb.SpecKey); err != nil || !reflect.DeepEqual(got, rb) {
		t.Fatalf("re-published entry: %v", err)
	}
}

// TestResultFormatVersionBump: bumping the result format version must
// orphan every DRS1 entry — the keys change — while DBS1 stream
// entries, keyed under their own format version, keep hitting.
func TestResultFormatVersionBump(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	bs := testStream(t, 11, 3000, 16, false)
	streamKey := Key("file:bump", 16, 0, false)
	if err := s.Put(ctx, streamKey, bs); err != nil {
		t.Fatal(err)
	}
	rb := plainResultBlob()
	oldKey := ResultKey(streamKey, rb.Engine, rb.SpecKey)
	if err := s.PutResult(ctx, oldKey, rb); err != nil {
		t.Fatal(err)
	}

	old := resultFormatVersion
	resultFormatVersion = old + "-bumped"
	defer func() { resultFormatVersion = old }()

	newKey := ResultKey(streamKey, rb.Engine, rb.SpecKey)
	if newKey == oldKey {
		t.Fatal("format version is not folded into the result key")
	}
	if _, err := s.GetResult(ctx, newKey, rb.Engine, rb.SpecKey); !errors.Is(err, ErrMiss) {
		t.Fatalf("bumped-version lookup = %v, want ErrMiss", err)
	}
	// The stream tier is versioned independently and must be untouched.
	if Key("file:bump", 16, 0, false) != streamKey {
		t.Fatal("result version bump changed a stream key")
	}
	if got, err := s.Get(ctx, streamKey); err != nil || !reflect.DeepEqual(got, bs) {
		t.Fatalf("stream entry after result version bump: %v", err)
	}
}

// TestMixedKindEviction: stream and result entries share one MaxBytes
// budget, and LRU eviction crosses kinds in both directions.
func TestMixedKindEviction(t *testing.T) {
	ctx := context.Background()
	bs := testStream(t, 12, 5000, 16, false)
	streamBlob, err := bs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rb := plainResultBlob()
	resultBlob, err := rb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(streamBlob) <= 3*len(resultBlob)+32 {
		t.Fatalf("test geometry broken: stream blob %d B not large against result blob %d B",
			len(streamBlob), len(resultBlob))
	}
	// Cap holds a few results but never the stream alongside them.
	s := openTestStore(t, Options{MaxBytes: int64(3*len(resultBlob) + 32)})

	streamKey := Key("file:mix", 16, 0, false)
	if err := s.Put(ctx, streamKey, bs); err != nil {
		t.Fatal(err)
	}
	age := func(path string, hours int) {
		past := time.Now().Add(time.Duration(-hours) * time.Hour)
		if err := os.Chtimes(path, past, past); err != nil {
			t.Fatal(err)
		}
	}
	age(s.entryPath(streamKey), 4)

	// Publishing a result overflows the budget; the stalest entry — the
	// stream — is evicted to make room.
	rKeys := []string{
		ResultKey(streamKey, "dew", "spec-a"),
		ResultKey(streamKey, "dew", "spec-b"),
	}
	if err := s.PutResult(ctx, rKeys[0], rb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.entryPath(streamKey)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("result publish did not evict the stale stream entry")
	}
	age(s.resultPath(rKeys[0]), 3)
	if err := s.PutResult(ctx, rKeys[1], rb); err != nil {
		t.Fatal(err)
	}
	age(s.resultPath(rKeys[1]), 2)
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.StreamEntries != 0 || ds.ResultEntries != 2 {
		t.Fatalf("disk stats after result publishes = %+v", ds)
	}

	// The reverse direction: a stream publish evicts stale results (the
	// just-published entry itself is exempt even though it alone
	// overflows the cap).
	if err := s.Put(ctx, Key("file:mix2", 16, 0, false), bs); err != nil {
		t.Fatal(err)
	}
	ds, err = s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.StreamEntries != 1 || ds.ResultEntries != 0 {
		t.Fatalf("disk stats after stream publish = %+v", ds)
	}
	if ev := s.Stats().Evictions; ev != 3 {
		t.Fatalf("eviction counter = %d, want 3", ev)
	}
}

// TestMemTierHit: with MemBytes set, a decoded stream is served from
// the in-process tier even after its disk entry vanishes.
func TestMemTierHit(t *testing.T) {
	s := openTestStore(t, Options{MemBytes: 1 << 20})
	ctx := context.Background()
	want := testStream(t, 13, 2000, 32, true)
	key := Key(TraceID(testTrace(13, 2000)), 32, 0, true)

	decodes := 0
	bs, hit, err := s.GetOrMaterialize(ctx, key, 32, true, func(context.Context) (*trace.BlockStream, error) {
		decodes++
		return want, nil
	})
	if err != nil || hit || decodes != 1 {
		t.Fatalf("cold: hit=%v decodes=%d err=%v", hit, decodes, err)
	}
	if err := os.Remove(s.entryPath(key)); err != nil {
		t.Fatal(err)
	}
	bs, hit, err = s.GetOrMaterialize(ctx, key, 32, true, func(context.Context) (*trace.BlockStream, error) {
		t.Fatal("decode ran despite a live in-process entry")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("warm: hit=%v err=%v", hit, err)
	}
	if !reflect.DeepEqual(bs, want) {
		t.Fatal("in-process tier returned a different stream")
	}
	if mh := s.Stats().MemHits; mh != 1 {
		t.Fatalf("MemHits = %d, want 1", mh)
	}
	if entries, bytes := s.mem.order.Len(), s.mem.size; entries != 1 || bytes <= 0 {
		t.Fatalf("in-process tier holds %d entries, %d bytes", entries, bytes)
	}

	// A geometry mismatch must not be served from memory either.
	if got := s.memGet(key, 16, true); got != nil {
		t.Fatal("in-process tier served a stream under the wrong geometry")
	}
}

// TestMemTierEviction: the in-process LRU evicts from the cold end
// when the estimated footprint exceeds the budget.
func TestMemTierEviction(t *testing.T) {
	ctx := context.Background()
	one := testStream(t, 14, 4000, 16, false)
	two := testStream(t, 15, 2500, 16, false)
	budget := streamMemSize(one) + streamMemSize(two)/2
	if budget >= streamMemSize(one)+streamMemSize(two) || budget < streamMemSize(one) || budget < streamMemSize(two) {
		t.Fatalf("test geometry broken: budget %d vs sizes %d, %d",
			budget, streamMemSize(one), streamMemSize(two))
	}
	s := openTestStore(t, Options{MemBytes: budget})
	key1 := Key("file:one", 16, 0, false)
	key2 := Key("file:two", 16, 0, false)
	for _, p := range []struct {
		key string
		bs  *trace.BlockStream
	}{{key1, one}, {key2, two}} {
		if _, _, err := s.GetOrMaterialize(ctx, p.key, 16, false,
			func(context.Context) (*trace.BlockStream, error) { return p.bs, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if entries := s.mem.order.Len(); entries != 1 {
		t.Fatalf("%d in-process entries after overflow, want 1 (cold end evicted)", entries)
	}
	// The survivor is the recent stream: it hits memory with its disk
	// entry gone; the evicted one has to go back to disk.
	if err := os.Remove(s.entryPath(key2)); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := s.GetOrMaterialize(ctx, key2, 16, false,
		func(context.Context) (*trace.BlockStream, error) {
			t.Fatal("recent stream was evicted from the in-process tier")
			return nil, nil
		}); err != nil || !hit {
		t.Fatalf("recent stream: hit=%v err=%v", hit, err)
	}
	if mh := s.Stats().MemHits; mh != 1 {
		t.Fatalf("MemHits = %d, want 1", mh)
	}
	decodes := 0
	if _, _, err := s.GetOrMaterialize(ctx, key1, 16, false,
		func(context.Context) (*trace.BlockStream, error) { decodes++; return one, nil }); err != nil {
		t.Fatal(err)
	}
	// key1's disk entry is still live, so this is a disk hit, not a
	// decode — but it must not have come from memory.
	if decodes != 0 {
		t.Fatalf("%d decodes for a disk-backed stream", decodes)
	}
	if mh := s.Stats().MemHits; mh != 1 {
		t.Fatalf("evicted stream was served from memory (MemHits = %d)", mh)
	}
}

// FuzzResultUnmarshal pins the DRS1 decode hardening: no input may
// panic, and any accepted blob must re-marshal to the identical bytes.
func FuzzResultUnmarshal(f *testing.F) {
	for _, rb := range []*ResultBlob{
		plainResultBlob(),
		refResultBlob(),
		{Engine: "e", SpecKey: "s"},
	} {
		data, err := rb.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("DRS1"))
	f.Add([]byte("DRS1\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rb := &ResultBlob{}
		if err := rb.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := rb.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted blob failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted blob does not re-marshal byte-identical")
		}
	})
}
