package core

import (
	"math/rand"
	"testing"

	"dew/internal/cache"
	"dew/internal/lrutree"
	"dew/internal/refsim"
	"dew/internal/trace"
)

func randomTrace(n int, addrSpace int64, seed int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := make(trace.Trace, n)
	for i := range t {
		t[i] = trace.Access{Addr: uint64(rng.Int63n(addrSpace)), Kind: trace.Kind(rng.Intn(3))}
	}
	return t
}

// streakyTrace mixes random accesses with repeats of the previous address
// and small strides — the locality mix that exercises MRA streaks, wave
// reuse and MRE resurrection together.
func streakyTrace(n int, addrSpace int64, seed int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := make(trace.Trace, n)
	var prev uint64
	for i := range t {
		switch rng.Intn(4) {
		case 0: // repeat
			t[i] = trace.Access{Addr: prev}
		case 1: // small stride
			t[i] = trace.Access{Addr: prev + uint64(rng.Intn(8))}
		default: // random
			t[i] = trace.Access{Addr: uint64(rng.Int63n(addrSpace))}
		}
		prev = t[i].Addr
	}
	return t
}

// checkExact verifies DEW's central claim: for every configuration the
// pass covers, miss counts equal the reference simulator's exactly.
func checkExact(t *testing.T, opt Options, tr trace.Trace) {
	t.Helper()
	s := MustNew(opt)
	if err := s.Simulate(tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	for _, res := range s.Results() {
		want, err := refsim.RunTrace(res.Config, cache.FIFO, tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Misses != want.Misses {
			t.Errorf("opts %+v, config %v: DEW misses = %d, refsim misses = %d",
				opt, res.Config, res.Misses, want.Misses)
		}
		if res.Accesses != want.Accesses {
			t.Errorf("config %v: accesses %d vs %d", res.Config, res.Accesses, want.Accesses)
		}
	}
}

func TestExactnessRandomTraces(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8} {
		for _, block := range []int{1, 4, 32} {
			opt := Options{MinLogSets: 0, MaxLogSets: 6, Assoc: assoc, BlockSize: block}
			for seed := int64(0); seed < 3; seed++ {
				checkExact(t, opt, randomTrace(4000, 1<<14, seed))
			}
		}
	}
}

func TestExactnessStreakyTraces(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 16} {
		opt := Options{MinLogSets: 0, MaxLogSets: 7, Assoc: assoc, BlockSize: 4}
		for seed := int64(10); seed < 14; seed++ {
			checkExact(t, opt, streakyTrace(6000, 1<<12, seed))
		}
	}
}

func TestExactnessTinyAddressSpace(t *testing.T) {
	// A tiny address space maximizes evictions, MRE resurrections and
	// wave-pointer staleness.
	for _, assoc := range []int{2, 4} {
		opt := Options{MinLogSets: 0, MaxLogSets: 4, Assoc: assoc, BlockSize: 1}
		for seed := int64(20); seed < 26; seed++ {
			checkExact(t, opt, randomTrace(8000, 48, seed))
		}
	}
}

func TestExactnessMinLogAboveZero(t *testing.T) {
	// A forest (minimum set count > 1): top level has several roots.
	opt := Options{MinLogSets: 3, MaxLogSets: 8, Assoc: 4, BlockSize: 8}
	checkExact(t, opt, streakyTrace(6000, 1<<13, 31))
}

func TestExactnessSingleLevel(t *testing.T) {
	opt := Options{MinLogSets: 5, MaxLogSets: 5, Assoc: 4, BlockSize: 4}
	checkExact(t, opt, randomTrace(5000, 1<<12, 40))
}

func TestExactnessWorkloadTraces(t *testing.T) {
	// Hand-built locality patterns resembling the app models (kept
	// dependency-free: core must not import workload).
	var tr trace.Trace
	rng := rand.New(rand.NewSource(50))
	pc := uint64(0x400000)
	for i := 0; i < 8000; i++ {
		// Instruction stream with loop-back branches.
		tr = append(tr, trace.Access{Addr: pc, Kind: trace.IFetch})
		pc += 4
		if rng.Intn(24) == 0 {
			pc -= uint64(4 * rng.Intn(32))
		}
		// Interleaved data stream: strided array plus hot table.
		if i%3 == 0 {
			tr = append(tr, trace.Access{Addr: 0x1000000 + uint64(i%4096)*4, Kind: trace.DataRead})
		}
		if i%7 == 0 {
			tr = append(tr, trace.Access{Addr: 0x2000000 + uint64(rng.Intn(64))*4, Kind: trace.DataWrite})
		}
	}
	for _, assoc := range []int{2, 8} {
		checkExact(t, Options{MaxLogSets: 9, Assoc: assoc, BlockSize: 16}, tr)
	}
}

// Ablations must not change results — only work counts.
// TestLRUAndFIFODiffer guards against the FIFO walk degenerating into
// LRU: on a thrashing trace the DEW pass and an LRU tree pass over the
// same configurations must miss differently.
func TestLRUAndFIFODiffer(t *testing.T) {
	tr := randomTrace(20000, 256, 66)
	fifo := MustNew(Options{MaxLogSets: 3, Assoc: 4, BlockSize: 1})
	if err := fifo.Simulate(tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	lru, err := lrutree.Run(lrutree.Options{MaxLogSets: 3, Assoc: 4, BlockSize: 1}, tr.NewSliceReader())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fifo.MissesFor(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := lru.Results()
	l := res[len(res)-1]
	if l.Config != (cache.Config{Sets: 8, Assoc: 4, BlockSize: 1}) {
		t.Fatalf("last LRU result is %+v, want 8 sets 4-way", l.Config)
	}
	if f == l.Misses {
		t.Errorf("FIFO and LRU missed identically (%d) on a thrashing trace; suspicious", f)
	}
}

func TestAblationEquivalence(t *testing.T) {
	tr := streakyTrace(10000, 1<<12, 60)
	base := MustNew(Options{MaxLogSets: 8, Assoc: 4, BlockSize: 4})
	if err := base.Simulate(tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	baseRes := base.Results()
	variants := []Options{
		{MaxLogSets: 8, Assoc: 4, BlockSize: 4, DisableMRA: true},
		{MaxLogSets: 8, Assoc: 4, BlockSize: 4, DisableWave: true},
		{MaxLogSets: 8, Assoc: 4, BlockSize: 4, DisableMRE: true},
		{MaxLogSets: 8, Assoc: 4, BlockSize: 4, DisableMRA: true, DisableWave: true, DisableMRE: true},
	}
	for _, opt := range variants {
		v := MustNew(opt)
		if err := v.Simulate(tr.NewSliceReader()); err != nil {
			t.Fatal(err)
		}
		res := v.Results()
		if len(res) != len(baseRes) {
			t.Fatalf("%+v: result count %d vs %d", opt, len(res), len(baseRes))
		}
		for i := range res {
			if res[i] != baseRes[i] {
				t.Errorf("%+v: result %d = %+v, want %+v", opt, i, res[i], baseRes[i])
			}
		}
	}
}

// With every property disabled, DEW degenerates to the worst case: node
// evaluations equal UnoptimizedEvaluations and every decision is a scan.
func TestFullyAblatedMatchesWorstCase(t *testing.T) {
	tr := randomTrace(3000, 1<<10, 70)
	s := MustNew(Options{MaxLogSets: 5, Assoc: 4, BlockSize: 4,
		DisableMRA: true, DisableWave: true, DisableMRE: true})
	if err := s.Simulate(tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.NodeEvaluations != s.UnoptimizedEvaluations() {
		t.Errorf("ablated evaluations %d != unoptimized %d", c.NodeEvaluations, s.UnoptimizedEvaluations())
	}
	if c.MRACount != 0 || c.WaveCount != 0 || c.MRECount != 0 {
		t.Errorf("ablated run recorded property counts: %+v", c)
	}
	wantSearches := uint64(6) * c.Accesses // one scan per level per access
	if c.Searches != wantSearches {
		t.Errorf("ablated searches %d, want %d", c.Searches, wantSearches)
	}
}

func TestP2MRAStreakCutoff(t *testing.T) {
	// Repeating one address: after the first access, every one is a
	// P2 cut-off at the top level with exactly one comparison.
	s := MustNew(Options{MaxLogSets: 6, Assoc: 4, BlockSize: 4})
	for i := 0; i < 100; i++ {
		s.Access(trace.Access{Addr: 0x1234})
	}
	c := s.Counters()
	if c.MRACount != 99 {
		t.Errorf("MRACount = %d, want 99", c.MRACount)
	}
	// First access: 7 levels of (MRA check + cold insert); subsequent
	// accesses: 1 comparison each.
	if c.NodeEvaluations != 7*2+99*2 {
		t.Errorf("NodeEvaluations = %d, want %d", c.NodeEvaluations, 7*2+99*2)
	}
	for _, res := range s.Results() {
		if res.Misses != 1 {
			t.Errorf("%v: misses = %d, want 1 (compulsory only)", res.Config, res.Misses)
		}
	}
}

func TestP3WavePointerAvoidsSearch(t *testing.T) {
	// Alternate between blocks 0 and 16: they alias to the same node at
	// every level with <= 16 sets, so the MRA alternates (no P2 cut-off)
	// while both blocks stay resident. After warm-up, the top level must
	// decide by scan (it has no parent) and every deeper level by a wave
	// probe — one scan and four wave decisions per access.
	s := MustNew(Options{MaxLogSets: 4, Assoc: 4, BlockSize: 1})
	warm := 8
	for i := 0; i < warm; i++ {
		s.Access(trace.Access{Addr: uint64(i % 2 * 16)})
	}
	before := s.Counters()
	for i := 0; i < 100; i++ {
		s.Access(trace.Access{Addr: uint64(i % 2 * 16)})
	}
	after := s.Counters()
	if got := after.Searches - before.Searches; got != 100 {
		t.Errorf("steady state performed %d scans, want 100 (top level only)", got)
	}
	if got := after.WaveCount - before.WaveCount; got != 400 {
		t.Errorf("steady state performed %d wave decisions, want 400", got)
	}
	if after.MRACount != before.MRACount {
		t.Error("unexpected P2 cut-offs in an alternating stream")
	}
}

func TestP4MREDetectsMissWithoutSearch(t *testing.T) {
	// S=1 (top level only), A=2, blocks 1,2,3 then re-access the evicted
	// block: at the single-level pass, the MRE entry must catch it.
	s := MustNew(Options{MinLogSets: 0, MaxLogSets: 0, Assoc: 2, BlockSize: 1})
	for _, a := range []uint64{1, 2, 3} { // 3 evicts 1; MRE=1
		s.Access(trace.Access{Addr: a})
	}
	before := s.Counters()
	s.Access(trace.Access{Addr: 1}) // MRE hit -> miss without search
	after := s.Counters()
	if after.MRECount != before.MRECount+1 {
		t.Errorf("MRECount did not increase: %d -> %d", before.MRECount, after.MRECount)
	}
	if after.Searches != before.Searches {
		t.Error("MRE-decided miss still scanned the tag list")
	}
	if got, _ := s.MissesFor(1, 2); got != 4 {
		t.Errorf("misses = %d, want 4", got)
	}
}

func TestMRRResurrectionPreservesExactness(t *testing.T) {
	// Ping-pong eviction pattern (thrashing a 2-way set with 3 blocks)
	// drives constant MRE swaps; exactness must hold at every level.
	var tr trace.Trace
	for i := 0; i < 500; i++ {
		tr = append(tr, trace.Access{Addr: uint64(i % 3 * 64)}) // same set, 3 tags
	}
	checkExact(t, Options{MaxLogSets: 3, Assoc: 2, BlockSize: 1}, tr)
}

func TestResultsShape(t *testing.T) {
	s := MustNew(Options{MinLogSets: 2, MaxLogSets: 5, Assoc: 4, BlockSize: 16})
	s.Access(trace.Access{Addr: 0})
	res := s.Results()
	if len(res) != 8 { // 4 levels × (assoc 1 + assoc 4)
		t.Fatalf("len(Results) = %d, want 8", len(res))
	}
	wantSets := []int{4, 4, 8, 8, 16, 16, 32, 32}
	wantAssoc := []int{1, 4, 1, 4, 1, 4, 1, 4}
	for i, r := range res {
		if r.Config.Sets != wantSets[i] || r.Config.Assoc != wantAssoc[i] {
			t.Errorf("result %d config = %v", i, r.Config)
		}
		if r.Config.BlockSize != 16 {
			t.Errorf("result %d block size = %d", i, r.Config.BlockSize)
		}
	}
}

func TestResultsAssocOneDeduplicated(t *testing.T) {
	s := MustNew(Options{MaxLogSets: 3, Assoc: 1, BlockSize: 4})
	s.Access(trace.Access{Addr: 0})
	res := s.Results()
	if len(res) != 4 {
		t.Fatalf("assoc-1 pass should emit one result per level, got %d", len(res))
	}
	for _, r := range res {
		if r.Config.Assoc != 1 {
			t.Errorf("unexpected config %v", r.Config)
		}
	}
}

// For an associativity-1 pass, the tag-list path and the MRA path model
// the same cache: their miss counts must agree.
func TestAssocOneDMEqualsTagList(t *testing.T) {
	tr := randomTrace(5000, 1<<10, 80)
	s := MustNew(Options{MaxLogSets: 6, Assoc: 1, BlockSize: 4})
	if err := s.Simulate(tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	for li := range s.levels {
		if s.missDM[li] != s.missA[li] {
			t.Errorf("level %d: direct-mapped misses %d != tag-list misses %d", li, s.missDM[li], s.missA[li])
		}
	}
}

func TestMissesFor(t *testing.T) {
	tr := randomTrace(2000, 1<<10, 90)
	s := MustNew(Options{MinLogSets: 1, MaxLogSets: 4, Assoc: 4, BlockSize: 4})
	if err := s.Simulate(tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MissesFor(8, 2); err == nil {
		t.Error("MissesFor with unsimulated associativity should fail")
	}
	if _, err := s.MissesFor(3, 4); err == nil {
		t.Error("MissesFor with non-power-of-two sets should fail")
	}
	if _, err := s.MissesFor(1, 4); err == nil {
		t.Error("MissesFor below the simulated range should fail")
	}
	if _, err := s.MissesFor(32, 4); err == nil {
		t.Error("MissesFor above the simulated range should fail")
	}
	got, err := s.MissesFor(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refsim.RunTrace(mustCfg(8, 4, 4), cache.FIFO, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Misses {
		t.Errorf("MissesFor(8,4) = %d, want %d", got, want.Misses)
	}
	if gotDM, _ := s.MissesFor(4, 1); gotDM == 0 {
		t.Error("direct-mapped misses should be nonzero for a random trace")
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{MinLogSets: -1, MaxLogSets: 3, Assoc: 1, BlockSize: 1},
		{MinLogSets: 4, MaxLogSets: 3, Assoc: 1, BlockSize: 1},
		{MaxLogSets: 23, Assoc: 1, BlockSize: 1},
		{MaxLogSets: 3, Assoc: 0, BlockSize: 1},
		{MaxLogSets: 3, Assoc: 3, BlockSize: 1},
		{MaxLogSets: 3, Assoc: 128, BlockSize: 1},
		{MaxLogSets: 3, Assoc: 1, BlockSize: 0},
		{MaxLogSets: 3, Assoc: 1, BlockSize: 3},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, o)
		}
		if _, err := New(o); err == nil {
			t.Errorf("case %d: New accepted %+v", i, o)
		}
	}
	good := Options{MaxLogSets: 14, Assoc: 16, BlockSize: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("paper-scale options rejected: %v", err)
	}
	if good.Levels() != 15 {
		t.Errorf("Levels = %d, want 15", good.Levels())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic")
		}
	}()
	MustNew(Options{Assoc: 3, BlockSize: 1})
}

func TestSimulateReaderError(t *testing.T) {
	boom := trace.FuncReader(func() (trace.Access, error) { return trace.Access{}, errTest })
	s := MustNew(Options{MaxLogSets: 2, Assoc: 2, BlockSize: 4})
	if err := s.Simulate(boom); err != errTest {
		t.Fatalf("err = %v", err)
	}
	if _, err := Run(Options{MaxLogSets: 2, Assoc: 2, BlockSize: 4}, boom); err == nil {
		t.Error("Run should propagate reader errors")
	}
	if _, err := Run(Options{Assoc: 0, BlockSize: 1}, nil); err == nil {
		t.Error("Run should reject invalid options")
	}
}

var errTest = errorString("test error")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestCountersString(t *testing.T) {
	s := MustNew(Options{MaxLogSets: 2, Assoc: 2, BlockSize: 4})
	s.Access(trace.Access{Addr: 1})
	if s.Counters().String() == "" {
		t.Error("empty counters string")
	}
	if s.Options().Assoc != 2 {
		t.Error("Options accessor mismatch")
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
