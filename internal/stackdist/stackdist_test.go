package stackdist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dew/internal/cache"
	"dew/internal/refsim"
	"dew/internal/trace"
)

func randomTrace(n int, addrSpace int64, seed int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := make(trace.Trace, n)
	for i := range t {
		t[i] = trace.Access{Addr: uint64(rng.Int63n(addrSpace))}
	}
	return t
}

func TestStackDistanceHandSequence(t *testing.T) {
	// Single set, block 1: distances are textbook.
	s := mustSim(1, 1, 8)
	seq := []struct {
		addr uint64
		want int
	}{
		{1, -1}, // cold
		{2, -1},
		{3, -1},
		{1, 2}, // stack [3 2 1]
		{1, 0}, // now MRU
		{2, 2}, // stack [1 3 2]
		{3, 2}, // stack [2 1 3]
	}
	for i, st := range seq {
		if got := s.Access(trace.Access{Addr: st.addr}); got != st.want {
			t.Fatalf("step %d (addr %d): distance %d, want %d", i, st.addr, got, st.want)
		}
	}
	if s.ColdMisses() != 3 {
		t.Errorf("cold = %d, want 3", s.ColdMisses())
	}
}

// The stack property: one pass answers every associativity exactly,
// verified against the LRU reference simulator.
func TestAllAssociativityExactness(t *testing.T) {
	for _, sets := range []int{1, 4, 16} {
		for _, block := range []int{1, 8} {
			for seed := int64(0); seed < 3; seed++ {
				tr := randomTrace(6000, 1<<12, seed)
				s := mustSim(sets, block, 16)
				if err := s.Simulate(tr.NewSliceReader()); err != nil {
					t.Fatal(err)
				}
				for _, assoc := range []int{1, 2, 4, 8, 16} {
					got, err := s.MissesFor(assoc)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refsim.RunTrace(mustCfg(sets, assoc, block), cache.LRU, tr)
					if err != nil {
						t.Fatal(err)
					}
					if got != want.Misses {
						t.Errorf("S=%d B=%d A=%d seed %d: stackdist %d misses, refsim %d",
							sets, block, assoc, seed, got, want.Misses)
					}
				}
			}
		}
	}
}

func TestColdMissesMatchUniqueBlocks(t *testing.T) {
	tr := randomTrace(10000, 1<<10, 9)
	s := mustSim(8, 4, 8)
	if err := s.Simulate(tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	p, err := trace.ProfileReader(tr.NewSliceReader(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.ColdMisses() != p.UniqueBlocks {
		t.Errorf("cold %d != unique blocks %d", s.ColdMisses(), p.UniqueBlocks)
	}
	if s.Accesses() != 10000 {
		t.Errorf("accesses = %d", s.Accesses())
	}
}

// Misses must be non-increasing in associativity — the stack property
// itself, as a quick.Check invariant.
func TestQuickMissesMonotoneInAssoc(t *testing.T) {
	f := func(addrs []uint16) bool {
		if len(addrs) == 0 {
			return true
		}
		s := mustSim(4, 4, 32)
		for _, a := range addrs {
			s.Access(trace.Access{Addr: uint64(a)})
		}
		var prev uint64
		for a := 1; a <= 32; a *= 2 {
			m, err := s.MissesFor(a)
			if err != nil {
				return false
			}
			if a > 1 && m > prev {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestResultsLayout(t *testing.T) {
	s := mustSim(2, 4, 8)
	s.Access(trace.Access{Addr: 0})
	res := s.Results()
	if len(res) != 4 { // A = 1, 2, 4, 8
		t.Fatalf("results = %d, want 4", len(res))
	}
	for i, want := range []int{1, 2, 4, 8} {
		if res[i].Config.Assoc != want || res[i].Config.Sets != 2 || res[i].Config.BlockSize != 4 {
			t.Errorf("result %d config = %v", i, res[i].Config)
		}
	}
}

func TestOverflowBucket(t *testing.T) {
	// maxTrack 2: distances >= 2 overflow, so only A in {1, 2} are
	// answerable; A=4 must error.
	s := mustSim(1, 1, 2)
	for _, a := range []uint64{1, 2, 3, 1} { // distance of final access: 2 -> overflow
		s.Access(trace.Access{Addr: a})
	}
	if _, err := s.MissesFor(4); err == nil {
		t.Error("MissesFor beyond tracked depth should fail")
	}
	m1, err := s.MissesFor(1)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != 4 {
		t.Errorf("misses(A=1) = %d, want 4", m1)
	}
	m2, err := s.MissesFor(2)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != 4 { // 3 cold + 1 overflow
		t.Errorf("misses(A=2) = %d, want 4", m2)
	}
}

func TestValidation(t *testing.T) {
	cases := []struct{ sets, block, track int }{
		{0, 1, 4}, {3, 1, 4}, {1, 0, 4}, {1, 5, 4}, {1, 1, 0},
	}
	for _, c := range cases {
		if _, err := New(c.sets, c.block, c.track); err == nil {
			t.Errorf("New(%d,%d,%d) should fail", c.sets, c.block, c.track)
		}
	}
	if _, err := mustSim(1, 1, 4).MissesFor(0); err == nil {
		t.Error("MissesFor(0) should fail")
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(0, 1, 1); err == nil {
		t.Fatal("New(0,1,1) accepted zero sets")
	}
}

func TestRunAndErrors(t *testing.T) {
	tr := randomTrace(500, 256, 11)
	s, err := Run(4, 2, 8, tr.NewSliceReader())
	if err != nil {
		t.Fatal(err)
	}
	if s.Accesses() != 500 {
		t.Errorf("accesses = %d", s.Accesses())
	}
	if _, err := Run(0, 1, 1, nil); err == nil {
		t.Error("Run should reject invalid params")
	}
	boom := trace.FuncReader(func() (trace.Access, error) { return trace.Access{}, errTest })
	if _, err := Run(1, 1, 4, boom); err == nil {
		t.Error("Run should propagate reader errors")
	}
}

var errTest = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }

// Cross-validation triangle: stackdist, the LRU tree simulator and the
// reference simulator must all agree on shared configurations.
func TestTriangleAgreement(t *testing.T) {
	tr := randomTrace(8000, 1<<11, 13)
	s := mustSim(8, 4, 8)
	if err := s.Simulate(tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	for _, assoc := range []int{1, 2, 4, 8} {
		sd, err := s.MissesFor(assoc)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := refsim.RunTrace(mustCfg(8, assoc, 4), cache.LRU, tr)
		if err != nil {
			t.Fatal(err)
		}
		if sd != rs.Misses {
			t.Errorf("A=%d: stackdist %d vs refsim %d", assoc, sd, rs.Misses)
		}
	}
}

// mustCfg builds a cache.Config test fixture, panicking on parameters
// that could only be wrong at authoring time.
func mustCfg(sets, assoc, blockSize int) cache.Config {
	c, err := cache.NewConfig(sets, assoc, blockSize)
	if err != nil {
		panic(err)
	}
	return c
}

// mustSim builds a Simulator test fixture, panicking on parameters that
// could only be wrong at authoring time.
func mustSim(sets, blockSize, maxTrack int) *Simulator {
	s, err := New(sets, blockSize, maxTrack)
	if err != nil {
		panic(err)
	}
	return s
}
