package workload

import (
	"testing"

	"dew/internal/trace"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed rngs diverged at step %d", i)
		}
	}
	c := newRNG(43)
	same := 0
	a = newRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 equal outputs", same)
	}
}

func TestRNGRanges(t *testing.T) {
	r := newRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %f", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGBoolBias(t *testing.T) {
	r := newRNG(8)
	n := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.25) {
			n++
		}
	}
	if n < 23000 || n > 27000 {
		t.Errorf("Bool(0.25) true %d/100000 times", n)
	}
}

func TestStreamAndTake(t *testing.T) {
	g := NewSequential(0, 4, 64, trace.DataRead)
	tr, err := trace.ReadAll(Stream(g, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 4, 8, 12, 16}
	if len(tr) != 5 {
		t.Fatalf("Stream yielded %d", len(tr))
	}
	for i, w := range want {
		if tr[i].Addr != w {
			t.Errorf("access %d addr = %d, want %d", i, tr[i].Addr, w)
		}
	}
	g2 := NewSequential(0, 4, 64, trace.DataRead)
	tk := Take(g2, 5)
	for i := range tk {
		if tk[i] != tr[i] {
			t.Fatalf("Take and Stream disagree at %d", i)
		}
	}
}

// addrsOf returns just the addresses of a trace.
func addrsOf(tr trace.Trace) []uint64 {
	out := make([]uint64, len(tr))
	for i, a := range tr {
		out[i] = a.Addr
	}
	return out
}

func TestSequentialWraps(t *testing.T) {
	g := NewSequential(100, 8, 16, trace.DataWrite)
	addrs := addrsOf(Take(g, 5))
	want := []uint64{100, 108, 100, 108, 100}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("addrs = %v, want %v", addrs, want)
		}
	}
}

func TestLoopIFetchStructure(t *testing.T) {
	g := NewLoopIFetch(1, textBase, 16, 8, 4)
	tr := Take(g, 10000)
	backJumps, seqSteps := 0, 0
	for i := 1; i < len(tr); i++ {
		if tr[i].Kind != trace.IFetch {
			t.Fatalf("access %d kind = %v", i, tr[i].Kind)
		}
		d := int64(tr[i].Addr) - int64(tr[i-1].Addr)
		switch {
		case d == 4:
			seqSteps++
		case d < 0:
			backJumps++
		}
	}
	if seqSteps < 8000 {
		t.Errorf("only %d/9999 sequential steps; loop body should dominate", seqSteps)
	}
	if backJumps == 0 {
		t.Error("no backward branches observed")
	}
}

func TestBlocked2DCoversTileFirst(t *testing.T) {
	// 4x4 array, 2x2 tiles, elem 1: first four accesses are the first
	// tile, not the first row.
	g := NewBlocked2D(0, 4, 4, 1, 2, trace.DataRead)
	addrs := addrsOf(Take(g, 8))
	want := []uint64{0, 1, 4, 5, 2, 3, 6, 7}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("addrs = %v, want %v", addrs, want)
		}
	}
}

func TestBlocked2DWrapsWholeArray(t *testing.T) {
	w, h := 8, 6
	g := NewBlocked2D(0, w, h, 1, 4, trace.DataRead)
	seen := map[uint64]bool{}
	for _, a := range Take(g, w*h) {
		seen[a.Addr] = true
	}
	if len(seen) != w*h {
		t.Fatalf("one full sweep touched %d/%d cells", len(seen), w*h)
	}
}

func TestTableLookupSkew(t *testing.T) {
	g := NewTableLookup(9, 0, 1000, 4, 0.1, 0.9, trace.DataRead)
	hot := 0
	n := 50000
	for _, a := range Take(g, n) {
		if a.Addr/4 >= 1000 {
			t.Fatalf("lookup outside table: %d", a.Addr)
		}
		if a.Addr/4 < 100 {
			hot++
		}
	}
	// ~90% + 10%*10% = ~91% expected in the hot 10%.
	if float64(hot)/float64(n) < 0.85 {
		t.Errorf("hot fraction = %f, want >= 0.85", float64(hot)/float64(n))
	}
}

func TestStackFramesBounded(t *testing.T) {
	g := NewStackFrames(3, 64, 8)
	reads, writes := 0, 0
	for _, a := range Take(g, 20000) {
		if a.Addr > stackBase {
			t.Fatalf("stack access above base: %#x", a.Addr)
		}
		if stackBase-a.Addr > 64*9 {
			t.Fatalf("stack deeper than maxDepth: %#x", a.Addr)
		}
		if a.Kind == trace.DataWrite {
			writes++
		} else {
			reads++
		}
	}
	if reads == 0 || writes == 0 {
		t.Errorf("reads=%d writes=%d; want both", reads, writes)
	}
}

func TestPointerChaseStaysInRegion(t *testing.T) {
	g := NewPointerChase(4, 1000, 128, 64)
	distinct := map[uint64]bool{}
	for _, a := range Take(g, 5000) {
		if a.Addr < 1000 || a.Addr >= 1000+128*64 {
			t.Fatalf("chase outside region: %d", a.Addr)
		}
		distinct[a.Addr] = true
	}
	if len(distinct) < 32 {
		t.Errorf("chase visited only %d nodes", len(distinct))
	}
}

func TestMotionSearchBounds(t *testing.T) {
	const cur, ref = 0x1000_0000, 0x2000_0000
	w, h := 64, 48
	g := NewMotionSearch(5, cur, ref, w, h, 4)
	for _, a := range Take(g, 10000) {
		inCur := a.Addr >= cur && a.Addr < cur+uint64(w*h)
		inRef := a.Addr >= ref && a.Addr < ref+uint64(w*h)
		if !inCur && !inRef {
			t.Fatalf("motion access outside frames: %#x", a.Addr)
		}
	}
}

func TestMixRespectsWeights(t *testing.T) {
	a := NewSequential(0, 4, 1<<20, trace.DataRead)
	b := NewSequential(1<<30, 4, 1<<20, trace.DataWrite)
	m := NewMix(6, Weighted{a, 3}, Weighted{b, 1})
	na, nb := 0, 0
	for _, acc := range Take(m, 40000) {
		if acc.Addr >= 1<<30 {
			nb++
		} else {
			na++
		}
	}
	ratio := float64(na) / float64(na+nb)
	if ratio < 0.70 || ratio > 0.80 {
		t.Errorf("weight-3 generator got %.3f of accesses, want ~0.75", ratio)
	}
}

func TestInterleaveStrictRatio(t *testing.T) {
	a := NewSequential(0, 4, 1<<20, trace.DataRead)
	b := NewSequential(1<<30, 4, 1<<20, trace.DataWrite)
	iv := NewInterleave([]Generator{a, b}, []int{2, 1})
	tr := Take(iv, 9)
	pattern := ""
	for _, acc := range tr {
		if acc.Addr >= 1<<30 {
			pattern += "b"
		} else {
			pattern += "a"
		}
	}
	if pattern != "aabaabaab" {
		t.Fatalf("interleave pattern = %q, want aabaabaab", pattern)
	}
}

func TestPhasesCycle(t *testing.T) {
	a := NewSequential(0, 4, 1<<20, trace.DataRead)
	b := NewSequential(1<<30, 4, 1<<20, trace.DataWrite)
	p := NewPhases(Phase{a, 3}, Phase{b, 2})
	tr := Take(p, 10)
	pattern := ""
	for _, acc := range tr {
		if acc.Addr >= 1<<30 {
			pattern += "b"
		} else {
			pattern += "a"
		}
	}
	if pattern != "aaabbaaabb" {
		t.Fatalf("phases pattern = %q, want aaabbaaabb", pattern)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewSequential(0, 0, 10, trace.DataRead) },
		func() { NewSequential(0, 4, 0, trace.DataRead) },
		func() { NewBlocked2D(0, 0, 4, 1, 2, trace.DataRead) },
		func() { NewTableLookup(0, 0, 0, 4, 0.5, 0.5, trace.DataRead) },
		func() { NewTableLookup(0, 0, 10, 4, 0, 0.5, trace.DataRead) },
		func() { NewStackFrames(0, 0, 4) },
		func() { NewPointerChase(0, 0, 0, 64) },
		func() { NewLoopIFetch(0, 0, 0, 4, 4) },
		func() { NewMotionSearch(0, 0, 0, 0, 4, 4) },
		func() { NewMix(0) },
		func() { NewMix(0, Weighted{NewStackFrames(0, 4, 4), 0}) },
		func() { NewPhases() },
		func() { NewPhases(Phase{NewStackFrames(0, 4, 4), 0}) },
		func() { NewInterleave(nil, nil) },
		func() { NewInterleave([]Generator{NewStackFrames(0, 4, 4)}, []int{0}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
