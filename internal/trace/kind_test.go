package trace

import (
	"math"
	"math/rand"
	"testing"
)

// kindOf expands kr's canonical sequence into per-access kinds.
// Total returns the run weight the record accounts for.
func (kr KindRun) Total() uint64 {
	return uint64(kr.W[DataRead]) + uint64(kr.W[DataWrite]) + uint64(kr.W[IFetch])
}

func expandKinds(kr KindRun) []Kind {
	var buf [5]kindSpan
	var out []Kind
	for _, sp := range kr.spans(&buf) {
		for i := uint32(0); i < sp.n; i++ {
			out = append(out, sp.k)
		}
	}
	return out
}

// randKindRun builds a record by appending random small spans — the
// canonical constructor, so every invariant holds by construction.
func randKindRun(rng *rand.Rand, maxSpan int) KindRun {
	var kr KindRun
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		kr.addSpan(Kind(rng.Intn(3)), uint32(rng.Intn(maxSpan)+1))
	}
	return kr
}

func TestKindRunBasics(t *testing.T) {
	var zero KindRun
	if zero.Total() != 0 || !zero.AllWrites() {
		t.Errorf("zero KindRun: Total=%d AllWrites=%v", zero.Total(), zero.AllWrites())
	}

	wr := kindRunOf(DataWrite)
	if !wr.AllWrites() || wr.Lead != 1 || wr.FirstKind() != DataWrite || wr.Total() != 1 {
		t.Errorf("store record %+v", wr)
	}
	rd := kindRunOf(DataRead)
	if rd.AllWrites() || rd.FirstKind() != DataRead || rd.Total() != 1 {
		t.Errorf("load record %+v", rd)
	}
	iv := kindRunOf(IFetch)
	if iv.FirstKind() != IFetch {
		t.Errorf("ifetch record %+v", iv)
	}

	// Store-led mixed run: Lead counts the opening stores only.
	var kr KindRun
	kr.addSpan(DataWrite, 3)
	kr.addSpan(IFetch, 2)
	kr.addSpan(DataWrite, 4)
	if kr.Lead != 3 || kr.First != IFetch || kr.FirstKind() != DataWrite {
		t.Errorf("store-led run %+v", kr)
	}
	if kr.W[DataWrite] != 7 || kr.W[IFetch] != 2 || kr.Total() != 9 {
		t.Errorf("store-led weights %+v", kr)
	}
}

func TestMergeKindConcatenates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		a := randKindRun(rng, 4)
		b := randKindRun(rng, 4)
		got := mergeKind(a, b)

		// Oracle: append b's canonical expansion after a's, one access
		// at a time.
		want := a
		for _, k := range expandKinds(b) {
			want.addSpan(k, 1)
		}
		if got != want {
			t.Fatalf("mergeKind(%+v, %+v) = %+v, want %+v", a, b, got, want)
		}
	}
}

func TestSplitKindRunAllCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 500; trial++ {
		kr := randKindRun(rng, 4)
		total := uint32(kr.Total())
		exp := expandKinds(kr)
		for n := uint32(0); n <= total; n++ {
			front, back := splitKindRun(kr, n)
			if front.Total() != uint64(n) || back.Total() != uint64(total-n) {
				t.Fatalf("split(%+v, %d) totals (%d, %d)", kr, n, front.Total(), back.Total())
			}
			// Oracle: summarize the expansion's two halves directly.
			var wantF, wantB KindRun
			for _, k := range exp[:n] {
				wantF.addSpan(k, 1)
			}
			for _, k := range exp[n:] {
				wantB.addSpan(k, 1)
			}
			if front != wantF || back != wantB {
				t.Fatalf("split(%+v, %d) = (%+v, %+v), want (%+v, %+v)", kr, n, front, back, wantF, wantB)
			}
			// Splitting then merging must reproduce the original.
			if rejoined := mergeKind(front, back); rejoined != kr {
				t.Fatalf("merge(split(%+v, %d)) = %+v", kr, n, rejoined)
			}
		}
	}
}

func TestSplitKindRunBigWeights(t *testing.T) {
	// Cuts inside the summarized tail regions at near-MaxUint32 weights,
	// where the per-access oracle is infeasible: check totals, per-kind
	// conservation and the canonical region each cut lands in.
	var kr KindRun
	kr.addSpan(DataWrite, math.MaxUint32-5)
	kr.addSpan(DataRead, math.MaxUint32-3)
	kr.addSpan(IFetch, 7)
	for _, n := range []uint32{0, 1, math.MaxUint32 - 6, math.MaxUint32 - 5, math.MaxUint32 - 4, math.MaxUint32} {
		front, back := splitKindRun(kr, n)
		if front.Total() != uint64(n) || front.Total()+back.Total() != kr.Total() {
			t.Fatalf("cut %d: totals (%d, %d)", n, front.Total(), back.Total())
		}
		for k := range kr.W {
			if front.W[k]+back.W[k] != kr.W[k] {
				t.Fatalf("cut %d: kind %d not conserved", n, k)
			}
		}
		if rejoined := mergeKind(front, back); rejoined != kr {
			t.Fatalf("cut %d: merge(split) = %+v, want %+v", n, rejoined, kr)
		}
	}
}

func TestAppendKindMatchesAppend(t *testing.T) {
	// The kind channel is a strict superset: appendKind must make the
	// same runs as append, and the kind records must match a per-access
	// replay.
	rng := rand.New(rand.NewSource(23))
	plain := &BlockStream{BlockSize: 4}
	kinds := &BlockStream{BlockSize: 4, Kinds: []KindRun{}}
	id := uint64(0)
	for i := 0; i < 20000; i++ {
		if rng.Intn(3) == 0 {
			id = uint64(rng.Intn(8))
		}
		k := Kind(rng.Intn(3))
		plain.push(id, 0, 1)
		kinds.push(id, k, 1)
	}
	assertSameStream(t, "appendKind runs", &BlockStream{
		BlockSize: kinds.BlockSize, IDs: kinds.IDs, Runs: kinds.Runs, Accesses: kinds.Accesses,
	}, plain)
	for i := range kinds.Kinds {
		if kinds.Kinds[i].Total() != uint64(kinds.Runs[i]) {
			t.Fatalf("run %d kind total %d != weight %d", i, kinds.Kinds[i].Total(), kinds.Runs[i])
		}
	}
}

func TestAppendKindRunMatchesPerAccess(t *testing.T) {
	// appendKindRun over weighted records must equal appendKind over
	// their canonical expansions.
	rng := rand.New(rand.NewSource(24))
	weighted := &BlockStream{BlockSize: 2, Kinds: []KindRun{}}
	perAccess := &BlockStream{BlockSize: 2, Kinds: []KindRun{}}
	for i := 0; i < 500; i++ {
		id := uint64(rng.Intn(4))
		kr := randKindRun(rng, 6)
		weighted.appendKindRun(id, kr)
		for _, k := range expandKinds(kr) {
			perAccess.push(id, k, 1)
		}
	}
	assertSameStream(t, "appendKindRun vs appendKind", weighted, perAccess)
}

func TestKindTotals(t *testing.T) {
	tr := make(Trace, 4000)
	var want [3]uint64
	for i := range tr {
		k := Kind((i * 7) % 3)
		tr[i] = Access{Addr: uint64(i*13) % 2048, Kind: k}
		want[k]++
	}
	bs, err := MaterializeBlockStreamWithKinds(tr.NewSliceReader(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := bs.KindTotals(); got != want {
		t.Errorf("KindTotals = %v, want %v", got, want)
	}
	var sum uint64
	for _, n := range want {
		sum += n
	}
	if sum != bs.Accesses {
		t.Errorf("totals sum %d != accesses %d", sum, bs.Accesses)
	}
	// Kind-free streams report zeros.
	plain, err := tr.BlockStream(8)
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.KindTotals(); got != ([3]uint64{}) {
		t.Errorf("kind-free KindTotals = %v", got)
	}
}

// kindRunOf returns the weight-1 record of a single access.
func kindRunOf(k Kind) KindRun {
	var kr KindRun
	kr.addSpan(k, 1)
	return kr
}
