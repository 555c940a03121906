package trace

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// foldTestTrace mixes sequential strides (runs of weight > 1 at block
// sizes > 1) with jumps, like the shard tests.
func foldTestTrace(n int, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := make(Trace, n)
	var addr uint64
	for i := range tr {
		switch rng.Intn(3) {
		case 0:
			addr++
		default:
			addr = uint64(rng.Intn(1 << 12))
		}
		tr[i] = Access{Addr: addr}
	}
	return tr
}

// assertSameStream fails unless the two streams are bit-identical:
// same block size, same columns (including the kind channel when
// present), same access count.
func assertSameStream(t *testing.T, ctx string, got, want *BlockStream) {
	t.Helper()
	if got.BlockSize != want.BlockSize || got.Accesses != want.Accesses || len(got.IDs) != len(want.IDs) {
		t.Fatalf("%s: stream shape (B=%d, %d accesses, %d runs), want (B=%d, %d, %d)",
			ctx, got.BlockSize, got.Accesses, len(got.IDs), want.BlockSize, want.Accesses, len(want.IDs))
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] || got.Runs[i] != want.Runs[i] {
			t.Fatalf("%s: run %d = (%d, %d), want (%d, %d)",
				ctx, i, got.IDs[i], got.Runs[i], want.IDs[i], want.Runs[i])
		}
	}
	if got.HasKinds() != want.HasKinds() {
		t.Fatalf("%s: kind channel present %v, want %v", ctx, got.HasKinds(), want.HasKinds())
	}
	if want.HasKinds() {
		for i := range want.Kinds {
			if got.Kinds[i] != want.Kinds[i] {
				t.Fatalf("%s: run %d kinds = %+v, want %+v", ctx, i, got.Kinds[i], want.Kinds[i])
			}
			if got.Kinds[i].Total() != uint64(got.Runs[i]) {
				t.Fatalf("%s: run %d kind total %d != weight %d", ctx, i, got.Kinds[i].Total(), got.Runs[i])
			}
		}
	}
}

// assertExactColumns fails unless FoldBlockStream sized every column of
// s at exactly its run count.
func assertExactColumns(t *testing.T, ctx string, s *BlockStream) {
	t.Helper()
	if cap(s.IDs) != s.Len() || cap(s.Runs) != s.Len() || (s.HasKinds() && cap(s.Kinds) != s.Len()) {
		t.Fatalf("%s: column capacities %d/%d/%d for %d runs", ctx, cap(s.IDs), cap(s.Runs), cap(s.Kinds), s.Len())
	}
}

// TestFoldBlockStreamEquivalence walks the full block ladder by folding
// from the finest stream; every rung must be bit-identical to the
// stream materialized directly from the trace at that size.
func TestFoldBlockStreamEquivalence(t *testing.T) {
	tr := foldTestTrace(20_000, 1)
	cur, err := tr.BlockStream(1)
	if err != nil {
		t.Fatal(err)
	}
	for block := 2; block <= 64; block <<= 1 {
		cur = FoldBlockStream(cur)
		want, err := tr.BlockStream(block)
		if err != nil {
			t.Fatal(err)
		}
		assertSameStream(t, "fold to B="+itoa(block), cur, want)
		assertExactColumns(t, "fold to B="+itoa(block), cur)
	}
}

// TestFoldKindEquivalence walks the ladder on a kind-preserving stream:
// every rung must be bit-identical — kind channel included — to direct
// kind materialization at that size, and sharding a folded kind stream
// must match the serial kind shard of the direct stream.
func TestFoldKindEquivalence(t *testing.T) {
	tr := foldTestTrace(20_000, 7)
	for i := range tr {
		tr[i].Kind = Kind(uint64(tr[i].Addr+uint64(i)) % 3)
	}
	cur, err := MaterializeBlockStreamWithKinds(tr.NewSliceReader(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for block := 2; block <= 64; block <<= 1 {
		cur = FoldBlockStream(cur)
		want, err := MaterializeBlockStreamWithKinds(tr.NewSliceReader(), block)
		if err != nil {
			t.Fatal(err)
		}
		assertSameStream(t, "kind fold to B="+itoa(block), cur, want)
	}
	gotSS, err := ShardBlockStream(cur, 2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := MaterializeBlockStreamWithKinds(tr.NewSliceReader(), 64)
	if err != nil {
		t.Fatal(err)
	}
	wantSS, err := ShardBlockStream(direct, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s := range wantSS.Shards {
		assertSameStream(t, "kind shard "+itoa(s), &gotSS.Shards[s], &wantSS.Shards[s])
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestFoldBlockStreamInto folds through a reused destination and must
// produce the same bits as the allocating fold; the source stays
// untouched.
func TestFoldBlockStreamInto(t *testing.T) {
	tr := foldTestTrace(10_000, 2)
	bs, err := tr.BlockStream(4)
	if err != nil {
		t.Fatal(err)
	}
	srcRuns := bs.Len()
	want := FoldBlockStream(bs)
	dst := &BlockStream{}
	for round := 0; round < 3; round++ {
		got := FoldBlockStreamInto(dst, bs)
		if got != dst {
			t.Fatal("FoldBlockStreamInto did not return its destination")
		}
		assertSameStream(t, "into round", got, want)
	}
	if bs.Len() != srcRuns || bs.BlockSize != 4 {
		t.Fatalf("fold mutated its source: %d runs at B=%d", bs.Len(), bs.BlockSize)
	}
	defer func() {
		if recover() == nil {
			t.Error("folding a stream into itself did not panic")
		}
	}()
	FoldBlockStreamInto(bs, bs)
}

// TestFoldOverflowSplit crafts near-MaxUint32 weights at fold merge
// points: the merged run must split exactly as per-access
// materialization splits it, with weight conserved.
func TestFoldOverflowSplit(t *testing.T) {
	big := uint32(math.MaxUint32 - 2)
	// IDs 2 and 3 fold to the same ID 1; the merged weight overflows.
	bs := &BlockStream{
		BlockSize: 1,
		IDs:       []uint64{2, 3, 2, 3},
		Runs:      []uint32{big, 5, 7, 1},
		Accesses:  uint64(big) + 5 + 7 + 1,
	}
	got := FoldBlockStream(bs)
	// Per-access machine: big accesses to 1, then 5+7+1 more; the tail
	// saturates at MaxUint32 and the remainder starts a new run.
	wantRuns := []uint32{math.MaxUint32, uint32(uint64(big) + 13 - math.MaxUint32)}
	want := &BlockStream{BlockSize: 2, IDs: []uint64{1, 1}, Runs: wantRuns, Accesses: bs.Accesses}
	assertSameStream(t, "overflow split", got, want)

	// A saturated tail must not absorb further same-ID runs.
	sat := &BlockStream{
		BlockSize: 1,
		IDs:       []uint64{2, 3, 2},
		Runs:      []uint32{math.MaxUint32, math.MaxUint32, 9},
		Accesses:  2*uint64(math.MaxUint32) + 9,
	}
	got = FoldBlockStream(sat)
	want = &BlockStream{
		BlockSize: 2,
		IDs:       []uint64{1, 1, 1},
		Runs:      []uint32{math.MaxUint32, math.MaxUint32, 9},
		Accesses:  sat.Accesses,
	}
	assertSameStream(t, "saturated tail", got, want)
}

// TestFoldTo checks the multi-rung entry: validation, identity on equal
// sizes, and bit-identity across a two-doubling jump.
func TestFoldTo(t *testing.T) {
	tr := foldTestTrace(5000, 3)
	bs, err := tr.BlockStream(4)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := FoldTo(bs, 4); err != nil || got != bs {
		t.Fatalf("FoldTo same size = (%p, %v), want the source back", got, err)
	}
	got, err := FoldTo(bs, 16)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStream(t, "FoldTo 16", got, want)
	if _, err := FoldTo(bs, 2); err == nil {
		t.Error("folding down to a finer size accepted")
	}
	if _, err := FoldTo(bs, 24); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	if _, err := FoldTo(bs, 0); err == nil {
		t.Error("zero size accepted")
	}
	// An invalid source must error out, not loop forever doubling 0.
	if _, err := FoldTo(&BlockStream{}, 4); err == nil {
		t.Error("zero-value source stream accepted")
	}
	if _, err := FoldTo(&BlockStream{BlockSize: 3}, 4); err == nil {
		t.Error("non-power-of-two source stream accepted")
	}
}

// TestFoldLadder derives a sparse ladder and compares every rung against
// direct materialization; the finest rung is the base stream itself.
func TestFoldLadder(t *testing.T) {
	tr := foldTestTrace(8000, 4)
	base, err := tr.BlockStream(2)
	if err != nil {
		t.Fatal(err)
	}
	blocks := []int{16, 2, 64, 16} // unsorted, duplicated, with gaps
	ladder, err := FoldLadder(base, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if len(ladder) != 3 {
		t.Fatalf("ladder holds %d rungs, want 3", len(ladder))
	}
	if ladder[2] != base {
		t.Error("ladder did not reuse the base stream at its own size")
	}
	for _, b := range []int{16, 64} {
		want, err := tr.BlockStream(b)
		if err != nil {
			t.Fatal(err)
		}
		assertSameStream(t, "ladder B="+itoa(b), ladder[b], want)
	}
	if _, err := FoldLadder(base, []int{1}); err == nil {
		t.Error("ladder below the base size accepted")
	}
	if _, err := FoldLadder(base, []int{12}); err == nil {
		t.Error("non-power-of-two rung accepted")
	}
	empty, err := FoldLadder(base, nil)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty ladder = (%v, %v), want an empty map", empty, err)
	}
}

// TestFoldShardEquivalence: sharding a folded stream is bit-identical to
// decoding at the coarser size through the span pipeline and sharding
// span by span — the composition the sharded frontends rely on.
func TestFoldShardEquivalence(t *testing.T) {
	tr := foldTestTrace(15_000, 5)
	base, err := tr.BlockStream(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, log := range []int{0, 2} {
		folded := FoldBlockStream(base)
		got, err := ShardBlockStream(folded, log)
		if err != nil {
			t.Fatal(err)
		}
		p, err := StreamSpans(context.Background(), tr.NewSliceReader(), 8, SpanOptions{MemBytes: 1, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := shardSpans(t, collectSpans(t, p), 8, log, false)
		assertSameStream(t, "sharded fold parent", got.Source, want.Source)
		for s := range want.Shards {
			assertSameStream(t, "shard "+itoa(s), &got.Shards[s], &want.Shards[s])
		}
	}
}

// TestFoldEmptyStream: folding an empty stream yields an empty stream
// with a zero (not NaN) compression ratio.
func TestFoldEmptyStream(t *testing.T) {
	empty, err := MaterializeBlockStream(Trace{}.NewSliceReader(), 4)
	if err != nil {
		t.Fatal(err)
	}
	got := FoldBlockStream(empty)
	if got.Len() != 0 || got.Accesses != 0 || got.BlockSize != 8 {
		t.Errorf("folded empty stream: %+v", got)
	}
	if r := got.CompressionRatio(); r != 0 {
		t.Errorf("empty fold CompressionRatio = %v, want 0", r)
	}
	ladder, err := FoldLadder(empty, []int{4, 32})
	if err != nil || ladder[32].Len() != 0 {
		t.Errorf("empty ladder = (%+v, %v)", ladder, err)
	}
}

// TestFoldZeroAllocs mirrors core's TestResetZeroAllocs for the ladder:
// once the destination has been sized, repeated folding through it
// allocates nothing.
func TestFoldZeroAllocs(t *testing.T) {
	tr := foldTestTrace(20_000, 6)
	bs, err := tr.BlockStream(4)
	if err != nil {
		t.Fatal(err)
	}
	dst := &BlockStream{}
	FoldBlockStreamInto(dst, bs) // size the columns once
	avg := testing.AllocsPerRun(5, func() {
		FoldBlockStreamInto(dst, bs)
	})
	if avg != 0 {
		t.Errorf("%v allocs per steady-state fold, want 0", avg)
	}
}

// FuzzFoldBlockStream checks the fold against the run-formation oracle
// (oracle_test.go) over the halved IDs, on arbitrary weighted streams,
// with the weight byte mapped into the near-MaxUint32 band so
// counter-overflow splits land at fold merge points. The same pairs
// drive a kind-weighted stream (crafted per-kind records of the same
// totals), so overflow splits land inside kind records too.
func FuzzFoldBlockStream(f *testing.F) {
	f.Add([]byte{2, 255, 3, 1, 2, 255}, true)
	f.Add([]byte{0, 1, 1, 1, 0, 1}, false)
	f.Add([]byte{255, 254, 254, 255}, true)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, raw []byte, bigWeights bool) {
		if len(raw) > 4096 {
			return
		}
		// Build a weighted stream from (id, weight) byte pairs through
		// the per-access machinery itself.
		bs := &BlockStream{BlockSize: 2}
		ks := &BlockStream{BlockSize: 2, Kinds: []KindRun{}}
		for i := 0; i+1 < len(raw); i += 2 {
			id := uint64(raw[i])
			w := uint32(raw[i+1]%16) + 1
			if bigWeights && raw[i+1] >= 240 {
				w = math.MaxUint32 - uint32(255-raw[i+1])
			}
			bs.push(id, 0, w)
			ks.appendKindRun(id, testKindRun(raw[i]/16, w))
		}

		// Reference: the oracle over the same accesses with halved IDs.
		o, ok := newRunOracle(bs.BlockSize<<1, false), newRunOracle(ks.BlockSize<<1, true)
		for i, id := range bs.IDs {
			o.add(id>>1, uint64(bs.Runs[i]))
		}
		for i, id := range ks.IDs {
			ok.addKindRun(id>>1, ks.Kinds[i])
		}
		want, wantK := o.stream(), ok.stream()

		got := FoldBlockStream(bs)
		assertSameStream(t, "fold vs oracle", got, want)
		assertExactColumns(t, "fold", got)
		assertSameStream(t, "fold into", FoldBlockStreamInto(&BlockStream{}, bs), want)

		gotK := FoldBlockStream(ks)
		assertSameStream(t, "kind fold vs oracle", gotK, wantK)
		assertExactColumns(t, "kind fold", gotK)
		assertSameStream(t, "kind fold into", FoldBlockStreamInto(&BlockStream{}, ks), wantK)

		// Invariants: weight conservation, no zero runs, no mergeable
		// adjacency left behind.
		var sum uint64
		for i, w := range got.Runs {
			if w == 0 {
				t.Fatalf("zero-weight run %d", i)
			}
			sum += uint64(w)
			if i > 0 && got.IDs[i-1] == got.IDs[i] && got.Runs[i-1] < math.MaxUint32 {
				t.Fatalf("adjacent runs %d and %d share ID %#x below the overflow bound", i-1, i, got.IDs[i])
			}
		}
		if sum != bs.Accesses || got.Accesses != bs.Accesses {
			t.Fatalf("folded weight %d (Accesses %d), want %d", sum, got.Accesses, bs.Accesses)
		}
	})
}
