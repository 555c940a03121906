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
	if ds.Entries != 1 || ds.Bytes <= 0 {
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
// orphan every DRS1 entry — the keys change — while the stream
// identity folded into them (Key) is versioned independently and stays
// put.
func TestResultFormatVersionBump(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	streamKey := Key("file:bump", 16, 0, false)
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
	if Key("file:bump", 16, 0, false) != streamKey {
		t.Fatal("result version bump changed a stream key")
	}
	if got, err := s.GetResult(ctx, oldKey, rb.Engine, rb.SpecKey); err != nil || !reflect.DeepEqual(got, rb) {
		t.Fatalf("old-version entry under its own key: %v", err)
	}
}

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

// bigResultBlob is a DEW entry many times the size of refResultBlob's.
func bigResultBlob() *ResultBlob {
	rb := &ResultBlob{Engine: "dew", SpecKey: "sets=0..9,assoc=1..8,block=16..64,policy=FIFO"}
	for logSets := 0; logSets <= 9; logSets++ {
		for _, assoc := range []int{1, 2, 4, 8} {
			for _, block := range []int{16, 32, 64} {
				rb.Records = append(rb.Records, ResultRecord{
					Config: mkConfig(1<<logSets, assoc, block),
					Stats:  cache.Stats{Accesses: 1 << 30, Misses: uint64(logSets*1000 + assoc*10 + block)},
				})
			}
		}
	}
	return rb
}

// TestMixedKindEviction: DEW and reference result entries share one
// MaxBytes budget, and LRU eviction crosses engines in both directions.
// The just-published entry is exempt even when it alone overflows the
// cap.
func TestMixedKindEviction(t *testing.T) {
	ctx := context.Background()
	big, small := bigResultBlob(), refResultBlob()
	bigBlob, err := big.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	smallBlob, err := small.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(bigBlob) <= 3*len(smallBlob)+32 {
		t.Fatalf("test geometry broken: DEW blob %d B not large against reference blob %d B",
			len(bigBlob), len(smallBlob))
	}
	// Cap holds a few reference entries but never the DEW one alongside
	// them.
	s := openTestStore(t, Options{MaxBytes: int64(3*len(smallBlob) + 32)})
	age := func(key string, hours int) {
		past := time.Now().Add(time.Duration(-hours) * time.Hour)
		if err := os.Chtimes(s.resultPath(key), past, past); err != nil {
			t.Fatal(err)
		}
	}
	exists := func(key string) bool {
		_, err := os.Stat(s.resultPath(key))
		return err == nil
	}

	bigKey := ResultKey(Key("file:mix", 16, 0, false), big.Engine, big.SpecKey)
	if err := s.PutResult(ctx, bigKey, big); err != nil {
		t.Fatal(err)
	}
	if !exists(bigKey) {
		t.Fatal("an entry over the cap on its own was evicted by its own publish")
	}
	age(bigKey, 4)

	// Publishing a reference entry overflows the budget; the stalest
	// entry — the DEW one — is evicted to make room.
	refKeys := []string{
		ResultKey(Key("file:mix", 32, 0, true), small.Engine, small.SpecKey),
		ResultKey(Key("file:mix2", 32, 0, true), small.Engine, small.SpecKey),
	}
	if err := s.PutResult(ctx, refKeys[0], small); err != nil {
		t.Fatal(err)
	}
	if exists(bigKey) {
		t.Fatal("reference publish did not evict the stale DEW entry")
	}
	age(refKeys[0], 3)
	if err := s.PutResult(ctx, refKeys[1], small); err != nil {
		t.Fatal(err)
	}
	age(refKeys[1], 2)
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 2 || ds.Bytes != 2*int64(len(smallBlob)) {
		t.Fatalf("disk stats after reference publishes = %+v", ds)
	}

	// The reverse direction: a DEW publish evicts the stale reference
	// entries and itself stays.
	bigKey2 := ResultKey(Key("file:mix2", 16, 0, false), big.Engine, big.SpecKey)
	if err := s.PutResult(ctx, bigKey2, big); err != nil {
		t.Fatal(err)
	}
	for _, key := range refKeys {
		if exists(key) {
			t.Fatal("DEW publish did not evict a stale reference entry")
		}
	}
	if got, err := s.GetResult(ctx, bigKey2, big.Engine, big.SpecKey); err != nil || !reflect.DeepEqual(got, big) {
		t.Fatalf("oversized just-published entry: %v", err)
	}
	if ev := s.Stats().Evictions; ev != 3 {
		t.Fatalf("eviction counter = %d, want 3", ev)
	}
}
