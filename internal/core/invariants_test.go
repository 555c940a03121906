package core

import (
	"testing"

	"dew/internal/trace"
)

// Invariants must hold continuously throughout adversarial simulations.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	cases := []Options{
		{MaxLogSets: 4, Assoc: 2, BlockSize: 1},
		{MaxLogSets: 5, Assoc: 4, BlockSize: 4},
		{MinLogSets: 2, MaxLogSets: 6, Assoc: 8, BlockSize: 16},
		{MaxLogSets: 3, Assoc: 1, BlockSize: 1},
	}
	for _, opt := range cases {
		s := MustNew(opt)
		// Tiny address space to force constant evictions/resurrections.
		tr := randomTrace(3000, 96, 7)
		for i, a := range tr {
			s.Access(a)
			if i%250 == 0 {
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("opts %+v, after access %d: %v", opt, i, err)
				}
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("opts %+v, final: %v", opt, err)
		}
	}
}

func TestInvariantsUnderStreaks(t *testing.T) {
	s := MustNew(Options{MaxLogSets: 6, Assoc: 4, BlockSize: 4})
	tr := streakyTrace(5000, 1<<10, 13)
	for i, a := range tr {
		s.Access(a)
		if i%500 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("after access %d: %v", i, err)
			}
		}
	}
}

func TestInvariantsCatchCorruption(t *testing.T) {
	// Sanity-check that the checker is not vacuous: corrupt the
	// structure in each relevant way and expect a complaint.
	build := func() *Simulator {
		s := MustNew(Options{MaxLogSets: 3, Assoc: 2, BlockSize: 1})
		for _, a := range []uint64{1, 2, 3, 1, 4, 2, 9, 1} {
			s.Access(trace.Access{Addr: a})
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("clean simulator fails check: %v", err)
		}
		return s
	}

	s := build()
	s.levels[0].node[0].fill = int8(s.assoc + 1)
	if err := s.CheckInvariants(); err == nil {
		t.Error("fill overflow undetected")
	}

	s = build()
	s.levels[0].node[0].head = 7
	if err := s.CheckInvariants(); err == nil {
		t.Error("head overflow undetected")
	}

	s = build()
	if s.levels[0].node[0].fill < 2 {
		t.Fatal("test premise: root set should be full")
	}
	s.levels[0].tags[1] = s.levels[0].tags[0]
	if err := s.CheckInvariants(); err == nil {
		t.Error("duplicate tag undetected")
	}

	s = build()
	s.levels[0].node[0].mra = 0xDEAD
	if err := s.CheckInvariants(); err == nil {
		t.Error("non-resident MRA undetected")
	}

	s = build()
	// Break the MRA chain: point a child's MRA elsewhere while keeping
	// the tag resident in the child so only the chain check can fire.
	if !s.levels[0].node[0].mraValid() {
		t.Fatal("test premise: root MRA set")
	}
	b := s.levels[0].node[0].mra
	child := &s.levels[1]
	cn := int(b & child.mask)
	other := b + 1024 // different tag, same child unlikely; force value
	child.node[cn].mra = other
	if err := s.CheckInvariants(); err == nil {
		t.Error("broken MRA chain undetected")
	}

	s = build()
	// MRE pointing at a resident tag must be caught. The record lives in
	// the side arena, which the Access calls above allocated.
	s.levels[0].mre[0] = mreState{tag: s.levels[0].tags[0], ok: true}
	if err := s.CheckInvariants(); err == nil {
		t.Error("resident MRE undetected")
	}

	s = build()
	// Wave pointer disagreeing with an actually-resident child tag.
	lv := &s.levels[0]
	childLv := &s.levels[1]
	found := false
	for w := 0; w < int(lv.node[0].fill) && !found; w++ {
		bTag := lv.tags[w]
		cn := int(bTag & childLv.mask)
		cb := cn * s.assoc
		for cw := 0; cw < int(childLv.node[cn].fill); cw++ {
			if childLv.tags[cb+cw] == bTag {
				lv.wave[w] = int8((cw + 1) % s.assoc)
				if int8(cw) != lv.wave[w] {
					found = true
				}
				break
			}
		}
	}
	if found {
		if err := s.CheckInvariants(); err == nil {
			t.Error("stale wave pointer undetected")
		}
	}
}

// TestInvariantsCatchFingerprintCorruption: a pass of 8 or more ways
// keeps one fingerprint byte per way, and the columnar walk trusts it
// to find resident tags, so a byte disagreeing with its way's tag must
// be reported — and a byte beyond the node's fill, which no walk reads,
// must not.
func TestInvariantsCatchFingerprintCorruption(t *testing.T) {
	for _, assoc := range []int{8, 16} {
		s := MustNew(Options{MaxLogSets: 3, Assoc: assoc, BlockSize: 1})
		// 12 distinct blocks: the 8-way root fills up, the 16-way one does not.
		bs := mustStream(t, randomTrace(400, 12, 3), 1)
		if err := s.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("A=%d: clean simulator fails check: %v", assoc, err)
		}
		lv := &s.levels[0]
		fill := int(lv.node[0].fill)
		if fill < 2 {
			t.Fatalf("A=%d: test premise: root set should hold at least 2 ways, has %d", assoc, fill)
		}
		if fill < assoc {
			lv.fps[fill] ^= 0xff // stale byte: unreachable, not an error
			if err := s.CheckInvariants(); err != nil {
				t.Errorf("A=%d: byte beyond fill reported: %v", assoc, err)
			}
		}
		lv.fps[fill-1] ^= 0x01
		if err := s.CheckInvariants(); err == nil {
			t.Errorf("A=%d: corrupted fingerprint undetected", assoc)
		}
	}
}

func TestPaperBits(t *testing.T) {
	// Paper formula: per level, S × (96 + 64·A) bits.
	opt := Options{MinLogSets: 0, MaxLogSets: 2, Assoc: 4, BlockSize: 4}
	// Levels S=1,2,4: (1+2+4) × (96 + 256) = 7 × 352 = 2464.
	if got := opt.PaperBits(); got != 2464 {
		t.Errorf("PaperBits = %d, want 2464", got)
	}
	// Paper-scale tree (A=16, 15 levels): dominated by the top level,
	// 16384 × (96 + 1024) bits ≈ 2.2 MiB total; sanity-bound it.
	full := Options{MaxLogSets: 14, Assoc: 16, BlockSize: 4}
	bits := full.PaperBits()
	if bits < 30<<20 || bits > 40<<20 {
		t.Errorf("paper-scale PaperBits = %d bits (%.1f MiB), outside sanity band",
			bits, float64(bits)/8/(1<<20))
	}
}
