package lrutree

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

func streakyTrace(n int, addrSpace int64, seed int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := make(trace.Trace, n)
	var prev uint64
	for i := range t {
		switch rng.Intn(4) {
		case 0:
			t[i] = trace.Access{Addr: prev}
		case 1:
			t[i] = trace.Access{Addr: prev + uint64(rng.Intn(8))}
		default:
			t[i] = trace.Access{Addr: uint64(rng.Int63n(addrSpace))}
		}
		prev = t[i].Addr
	}
	return t
}

func checkExact(t *testing.T, opt Options, tr trace.Trace) {
	t.Helper()
	s := mustSim(opt)
	if err := s.Simulate(tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	for _, res := range s.Results() {
		want, err := refsim.RunTrace(res.Config, cache.LRU, tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Misses != want.Misses {
			t.Errorf("opts %+v, config %v: tree misses = %d, refsim misses = %d",
				opt, res.Config, res.Misses, want.Misses)
		}
	}
}

func TestExactnessRandomTraces(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8} {
		for _, block := range []int{1, 4, 32} {
			opt := Options{MaxLogSets: 6, Assoc: assoc, BlockSize: block}
			for seed := int64(0); seed < 3; seed++ {
				checkExact(t, opt, randomTrace(4000, 1<<14, seed))
			}
		}
	}
}

func TestExactnessStreakyTraces(t *testing.T) {
	for _, assoc := range []int{1, 2, 16} {
		opt := Options{MaxLogSets: 7, Assoc: assoc, BlockSize: 4}
		for seed := int64(10); seed < 14; seed++ {
			checkExact(t, opt, streakyTrace(6000, 1<<12, seed))
		}
	}
}

func TestExactnessTinyAddressSpace(t *testing.T) {
	for _, assoc := range []int{2, 4} {
		opt := Options{MaxLogSets: 4, Assoc: assoc, BlockSize: 1}
		for seed := int64(20); seed < 25; seed++ {
			checkExact(t, opt, randomTrace(8000, 48, seed))
		}
	}
}

func TestExactnessForest(t *testing.T) {
	checkExact(t, Options{MinLogSets: 2, MaxLogSets: 7, Assoc: 4, BlockSize: 8},
		streakyTrace(5000, 1<<13, 30))
}

// LRU inclusion: within one pass, misses must be non-increasing in set
// count for both associativities.
func TestInclusionAcrossLevels(t *testing.T) {
	tr := randomTrace(20000, 1<<13, 50)
	s := mustSim(Options{MaxLogSets: 8, Assoc: 4, BlockSize: 4})
	if err := s.Simulate(tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	var prevDM, prevA uint64
	for i := range s.levels {
		if i > 0 {
			if s.missDM[i] > prevDM {
				t.Errorf("level %d: DM misses rose %d -> %d", i, prevDM, s.missDM[i])
			}
			if s.missA[i] > prevA {
				t.Errorf("level %d: A-way misses rose %d -> %d", i, prevA, s.missA[i])
			}
		}
		prevDM, prevA = s.missDM[i], s.missA[i]
	}
}

func TestSameBlockSkip(t *testing.T) {
	s := mustSim(Options{MaxLogSets: 5, Assoc: 4, BlockSize: 16})
	// Addresses within one 16-byte block: the 49 repeats are pruned,
	// and every configuration sees one miss in 50 accesses.
	for i := 0; i < 50; i++ {
		s.Access(trace.Access{Addr: uint64(i % 16)})
	}
	for _, res := range s.Results() {
		if res.Misses != 1 || res.Accesses != 50 {
			t.Errorf("%v: %d misses over %d accesses, want 1 over 50", res.Config, res.Misses, res.Accesses)
		}
	}
}

// TestMRUCutoff checks where the fast path's walk stops: at the first
// level whose node holds the block at its MRU position, recorded as the
// walk's exit depth.
func TestMRUCutoff(t *testing.T) {
	opt := Options{MaxLogSets: 5, Assoc: 4, BlockSize: 1}
	s := mustSim(opt)
	// Blocks 7 and 15 share a node at 1..8 sets (levels 0-3) and part at
	// 16 sets (level 4), where 7's node still has 7 as its MRU tag.
	for _, blk := range []uint64{7, 15, 7} {
		s.accessFast(blk)
	}
	want := []uint64{0, 0, 0, 0, 1, 0, 2} // two full walks, one cut off at level 4
	for d, n := range s.exitHist {
		if n != want[d] {
			t.Fatalf("exit depths %v, want %v", s.exitHist, want)
		}
	}
	// The cut-off walk direct-mapped-misses levels 0-3 only.
	runs := mustSim(opt)
	runs.AccessRuns([]uint64{7, 15, 7}, []uint32{1, 1, 1})
	for _, res := range runs.Results() {
		want := uint64(2)
		if res.Config.Assoc == 1 && res.Config.Sets <= 8 {
			want = 3
		}
		if res.Misses != want {
			t.Errorf("%v: %d misses, want %d", res.Config, res.Misses, want)
		}
	}
}

func TestResultsShape(t *testing.T) {
	s := mustSim(Options{MinLogSets: 1, MaxLogSets: 3, Assoc: 2, BlockSize: 4})
	s.Access(trace.Access{Addr: 0})
	res := s.Results()
	if len(res) != 6 {
		t.Fatalf("len(Results) = %d, want 6", len(res))
	}
	if res[0].Config.Assoc != 1 || res[1].Config.Assoc != 2 || res[0].Config.Sets != 2 {
		t.Errorf("unexpected leading results: %+v, %+v", res[0], res[1])
	}
	sAssoc1 := mustSim(Options{MaxLogSets: 2, Assoc: 1, BlockSize: 4})
	sAssoc1.Access(trace.Access{Addr: 0})
	if got := len(sAssoc1.Results()); got != 3 {
		t.Errorf("assoc-1 results = %d, want 3", got)
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{MinLogSets: -1, MaxLogSets: 2, Assoc: 1, BlockSize: 1},
		{MinLogSets: 3, MaxLogSets: 2, Assoc: 1, BlockSize: 1},
		{MaxLogSets: 23, Assoc: 1, BlockSize: 1},
		{MaxLogSets: 2, Assoc: 5, BlockSize: 1},
		{MaxLogSets: 2, Assoc: 0, BlockSize: 1},
		{MaxLogSets: 2, Assoc: 1, BlockSize: 6},
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("case %d: New accepted %+v", i, o)
		}
	}
}

func TestNewRejectsInvalidOptions(t *testing.T) {
	if _, err := New(Options{Assoc: 0, BlockSize: 1}); err == nil {
		t.Fatal("New accepted zero associativity")
	}
}

func TestRunAndErrors(t *testing.T) {
	tr := randomTrace(100, 256, 60)
	s, err := Run(Options{MaxLogSets: 3, Assoc: 2, BlockSize: 4}, tr.NewSliceReader())
	if err != nil {
		t.Fatal(err)
	}
	if s.accesses != 100 {
		t.Errorf("accesses = %d", s.accesses)
	}
	if _, err := Run(Options{Assoc: 0, BlockSize: 1}, nil); err == nil {
		t.Error("Run should reject invalid options")
	}
	boom := trace.FuncReader(func() (trace.Access, error) { return trace.Access{}, errTest })
	if _, err := Run(Options{MaxLogSets: 2, Assoc: 2, BlockSize: 4}, boom); err == nil {
		t.Error("Run should propagate reader errors")
	}
}

var errTest = errorString("test error")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestQuickExactness(t *testing.T) {
	f := func(addrs []uint16, logAssoc, maxLog uint8) bool {
		if len(addrs) == 0 {
			return true
		}
		opt := Options{
			MaxLogSets: int(maxLog%5) + 1,
			Assoc:      1 << (logAssoc % 4),
			BlockSize:  4,
		}
		tr := make(trace.Trace, len(addrs))
		for i, a := range addrs {
			tr[i] = trace.Access{Addr: uint64(a) % 2048}
		}
		s := mustSim(opt)
		if err := s.Simulate(tr.NewSliceReader()); err != nil {
			return false
		}
		for _, res := range s.Results() {
			want, err := refsim.RunTrace(res.Config, cache.LRU, tr)
			if err != nil || res.Misses != want.Misses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWorkBelowUnoptimized checks that the pruning rules save work on
// the fast path: same-block pruning skips walks, and the MRU cut-off
// stops walks early, so the levels visited (counted by exit depth) fall
// below one full walk per access.
func TestWorkBelowUnoptimized(t *testing.T) {
	tr := streakyTrace(10000, 1<<12, 70)
	s := mustSim(Options{MaxLogSets: 8, Assoc: 4, BlockSize: 4})
	var prev uint64
	walks := 0
	for i, a := range tr {
		blk := a.Addr >> s.offBits
		if i > 0 && blk == prev {
			continue
		}
		prev = blk
		s.accessFast(blk)
		walks++
	}
	levels := uint64(len(s.levels))
	var visited, cut uint64
	for d, n := range s.exitHist {
		visited += n * min(uint64(d)+1, levels)
		if uint64(d) < levels {
			cut += n
		}
	}
	if walks >= len(tr) || cut == 0 {
		t.Errorf("pruning saved nothing: %d walks for %d accesses, %d cut off", walks, len(tr), cut)
	}
	if visited >= levels*uint64(len(tr)) {
		t.Errorf("pruning saved nothing: %d levels visited, unoptimized %d", visited, levels*uint64(len(tr)))
	}
}

// mustSim builds a Simulator test fixture, panicking on options that
// could only be wrong at authoring time.
func mustSim(opt Options) *Simulator {
	s, err := New(opt)
	if err != nil {
		panic(err)
	}
	return s
}
