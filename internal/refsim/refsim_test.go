package refsim

import (
	"math/rand"
	"testing"

	"dew/internal/cache"
	"dew/internal/trace"
)

// naiveCache is an independent, obviously-correct model used as an oracle
// for the optimized Simulator: each set is a plain slice of tags in
// insertion order (FIFO) or recency order (LRU).
type naiveCache struct {
	cfg    cache.Config
	policy cache.Policy
	sets   map[uint64][]uint64
}

func newNaive(cfg cache.Config, policy cache.Policy) *naiveCache {
	return &naiveCache{cfg: cfg, policy: policy, sets: map[uint64][]uint64{}}
}

func (n *naiveCache) access(addr uint64) bool {
	blk := n.cfg.BlockAddr(addr)
	set := blk & uint64(n.cfg.Sets-1)
	tag := blk >> uint(n.cfg.IndexBits())
	ways := n.sets[set]
	for i, t := range ways {
		if t == tag {
			if n.policy == cache.LRU {
				// Move to the most-recent end.
				ways = append(append(append([]uint64{}, ways[:i]...), ways[i+1:]...), tag)
				n.sets[set] = ways
			}
			return true
		}
	}
	ways = append(ways, tag)
	if len(ways) > n.cfg.Assoc {
		ways = ways[1:] // evict the oldest / least recent
	}
	n.sets[set] = ways
	return false
}

func randomTrace(n int, addrSpace int64, seed int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := make(trace.Trace, n)
	for i := range t {
		t[i] = trace.Access{Addr: uint64(rng.Int63n(addrSpace)), Kind: trace.Kind(rng.Intn(3))}
	}
	return t
}

func TestFIFOHandSequence(t *testing.T) {
	// S=1, A=2, B=1. FIFO evicts in insertion order regardless of hits.
	cfg := mustCfg(1, 2, 1)
	s := mustSim(cfg, cache.FIFO)
	steps := []struct {
		addr    uint64
		wantHit bool
	}{
		{10, false}, // [10]
		{20, false}, // [10 20]
		{10, true},  // hit; order unchanged
		{30, false}, // evict 10 -> [30 20]
		{10, false}, // evict 20 -> [30 10]
		{30, true},
		{10, true},
		{20, false}, // evict 30 -> [20 10]
		{30, false}, // evict 10 -> [20 30]
		{20, true},
	}
	for i, st := range steps {
		if got := s.Access(trace.Access{Addr: st.addr}); got != st.wantHit {
			t.Fatalf("step %d (addr %d): hit = %v, want %v", i, st.addr, got, st.wantHit)
		}
	}
	stats := s.Stats()
	if stats.Accesses != 10 || stats.Misses != 6 {
		t.Errorf("stats = %d accesses / %d misses, want 10/6", stats.Accesses, stats.Misses)
	}
	if stats.CompulsoryMisses != 3 {
		t.Errorf("compulsory = %d, want 3 (blocks 10, 20, 30)", stats.CompulsoryMisses)
	}
	if stats.Evictions != 4 {
		t.Errorf("evictions = %d, want 4", stats.Evictions)
	}
}

func TestLRUHandSequence(t *testing.T) {
	// Same S=1, A=2 cache under LRU: the A B A C A pattern where LRU
	// beats FIFO.
	cfg := mustCfg(1, 2, 1)
	fifo := mustSim(cfg, cache.FIFO)
	lru := mustSim(cfg, cache.LRU)
	seq := []uint64{1, 2, 1, 3, 1}
	for _, a := range seq {
		fifo.Access(trace.Access{Addr: a})
		lru.Access(trace.Access{Addr: a})
	}
	if got := fifo.Stats().Misses; got != 4 {
		t.Errorf("FIFO misses = %d, want 4", got)
	}
	if got := lru.Stats().Misses; got != 3 {
		t.Errorf("LRU misses = %d, want 3", got)
	}
}

func TestAgainstNaiveOracle(t *testing.T) {
	configs := []cache.Config{
		mustCfg(1, 1, 1),
		mustCfg(1, 4, 4),
		mustCfg(4, 1, 2),
		mustCfg(8, 2, 4),
		mustCfg(16, 4, 8),
		mustCfg(2, 8, 16),
		mustCfg(64, 16, 32),
	}
	for _, policy := range []cache.Policy{cache.FIFO, cache.LRU} {
		for _, cfg := range configs {
			for seed := int64(0); seed < 3; seed++ {
				tr := randomTrace(5000, 4096, seed)
				sim := mustSim(cfg, policy)
				oracle := newNaive(cfg, policy)
				for i, a := range tr {
					got := sim.Access(a)
					want := oracle.access(a.Addr)
					if got != want {
						t.Fatalf("%v %v seed %d access %d (addr %#x): sim hit=%v oracle hit=%v",
							policy, cfg, seed, i, a.Addr, got, want)
					}
				}
			}
		}
	}
}

func TestCompulsoryMatchesUniqueBlocks(t *testing.T) {
	for name, tr := range map[string]trace.Trace{
		"dense":  randomTrace(20000, 1<<16, 7),
		"sparse": sparseTrace(20000, testRand(t, 7)),
	} {
		for _, cfg := range []cache.Config{
			mustCfg(4, 2, 4),
			mustCfg(256, 4, 32),
		} {
			stats, err := RunTrace(cfg, cache.FIFO, tr)
			if err != nil {
				t.Fatal(err)
			}
			bs, err := tr.BlockStream(cfg.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := runStream(cfg, cache.FIFO, bs)
			if err != nil {
				t.Fatal(err)
			}
			p, err := trace.ProfileReader(tr.NewSliceReader(), cfg.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			if stats.CompulsoryMisses != p.UniqueBlocks || streamed.CompulsoryMisses != p.UniqueBlocks {
				t.Errorf("%s %v: compulsory %d (stream %d) != unique blocks %d",
					name, cfg, stats.CompulsoryMisses, streamed.CompulsoryMisses, p.UniqueBlocks)
			}
			if stats.Misses < stats.CompulsoryMisses {
				t.Errorf("%s %v: misses %d < compulsory %d", name, cfg, stats.Misses, stats.CompulsoryMisses)
			}
		}
	}
}

func TestPerKindCounts(t *testing.T) {
	tr := trace.Trace{
		{Addr: 0, Kind: trace.DataRead},
		{Addr: 64, Kind: trace.DataWrite},
		{Addr: 0, Kind: trace.IFetch},
		{Addr: 0, Kind: trace.DataRead},
	}
	cfg := mustCfg(1, 2, 64)
	stats, err := RunTrace(cfg, cache.FIFO, tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.AccessesByKind[trace.DataRead] != 2 ||
		stats.AccessesByKind[trace.DataWrite] != 1 ||
		stats.AccessesByKind[trace.IFetch] != 1 {
		t.Errorf("per-kind accesses = %v", stats.AccessesByKind)
	}
	// Misses: 0 (cold), 64 (cold); the ifetch and second read hit.
	if stats.Misses != 2 {
		t.Errorf("misses = %d, want 2", stats.Misses)
	}
	if stats.MissesByKind[trace.DataRead] != 1 || stats.MissesByKind[trace.DataWrite] != 1 {
		t.Errorf("per-kind misses = %v", stats.MissesByKind)
	}
}

// LRU obeys inclusion in both set count and associativity — the property
// DEW's related work exploits and FIFO lacks.
func TestLRUInclusion(t *testing.T) {
	tr := randomTrace(30000, 1<<14, 11)
	missesAt := func(sets, assoc int) uint64 {
		stats, err := RunTrace(mustCfg(sets, assoc, 4), cache.LRU, tr)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Misses
	}
	for _, assoc := range []int{1, 2, 4} {
		prev := missesAt(1, assoc)
		for _, sets := range []int{2, 4, 8, 16, 32} {
			cur := missesAt(sets, assoc)
			if cur > prev {
				t.Errorf("LRU misses increased from %d to %d going to %d sets (assoc %d)", prev, cur, sets, assoc)
			}
			prev = cur
		}
	}
	for _, sets := range []int{1, 4, 16} {
		prev := missesAt(sets, 1)
		for _, assoc := range []int{2, 4, 8} {
			cur := missesAt(sets, assoc)
			if cur > prev {
				t.Errorf("LRU misses increased from %d to %d going to assoc %d (%d sets)", prev, cur, assoc, sets)
			}
			prev = cur
		}
	}
}

// FIFO violates inclusion: there must exist an access that hits in a
// smaller cache but misses in a larger one. This is the paper's central
// premise (Section 1: "caches with the FIFO policy do not exhibit
// inclusion properties"), and it is why DEW cannot prune like LRU
// simulators do.
func TestFIFONonInclusion(t *testing.T) {
	small := mustCfg(1, 2, 1)
	big := mustCfg(2, 2, 1)
	found := false
	for seed := int64(0); seed < 50 && !found; seed++ {
		tr := randomTrace(2000, 8, seed)
		s1 := mustSim(small, cache.FIFO)
		s2 := mustSim(big, cache.FIFO)
		for _, a := range tr {
			h1 := s1.Access(a)
			h2 := s2.Access(a)
			if h1 && !h2 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no FIFO inclusion violation found; either FIFO is inclusive (wrong) or the search is too narrow")
	}
}

func TestRandomPolicyDeterministic(t *testing.T) {
	tr := randomTrace(20000, 1<<12, 13)
	cfg := mustCfg(8, 4, 8)
	a, err := RunTrace(cfg, cache.Random, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrace(cfg, cache.Random, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Misses != b.Misses {
		t.Errorf("Random policy not deterministic: %d vs %d misses", a.Misses, b.Misses)
	}
	if a.Misses < a.CompulsoryMisses {
		t.Errorf("misses %d < compulsory %d", a.Misses, a.CompulsoryMisses)
	}
}

func TestTagComparisonAccounting(t *testing.T) {
	// S=1, A=4, B=1; fill with 1,2,3,4 then hit 3: search order is
	// physical for FIFO, so comparisons to hit 3 = 3.
	cfg := mustCfg(1, 4, 1)
	s := mustSim(cfg, cache.FIFO)
	for _, a := range []uint64{1, 2, 3, 4} {
		s.Access(trace.Access{Addr: a})
	}
	// Cold fills compare 0, 1, 2, 3 valid ways respectively = 6.
	if got := s.Stats().TagComparisons; got != 6 {
		t.Fatalf("comparisons after fills = %d, want 6", got)
	}
	s.Access(trace.Access{Addr: 3})
	if got := s.Stats().TagComparisons; got != 9 {
		t.Errorf("comparisons after hit on way 2 = %d, want 9", got)
	}
	// A miss on a full set compares all 4 ways.
	s.Access(trace.Access{Addr: 9})
	if got := s.Stats().TagComparisons; got != 13 {
		t.Errorf("comparisons after full-set miss = %d, want 13", got)
	}
}

func TestLRUSearchOrderAffectsComparisons(t *testing.T) {
	// Under LRU the most recently used block is compared first, so
	// re-hitting the MRU block costs exactly one comparison.
	cfg := mustCfg(1, 4, 1)
	s := mustSim(cfg, cache.LRU)
	for _, a := range []uint64{1, 2, 3, 4} {
		s.Access(trace.Access{Addr: a})
	}
	before := s.Stats().TagComparisons
	s.Access(trace.Access{Addr: 4}) // MRU
	if got := s.Stats().TagComparisons - before; got != 1 {
		t.Errorf("MRU re-hit cost %d comparisons, want 1", got)
	}
	s.Access(trace.Access{Addr: 1}) // now the LRU block: 4 comparisons
	if got := s.Stats().TagComparisons - before; got != 5 {
		t.Errorf("LRU-position hit cost %d total, want 5", got)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(cache.Config{Sets: 3, Assoc: 1, BlockSize: 1}, cache.FIFO); err == nil {
		t.Error("want error for non-power-of-two sets")
	}
	if _, err := New(cache.Config{Sets: 1, Assoc: 256, BlockSize: 1}, cache.LRU); err == nil {
		t.Error("want error for oversized associativity")
	}
}

func TestNewRejectsZeroConfig(t *testing.T) {
	if _, err := New(cache.Config{}, cache.FIFO); err == nil {
		t.Fatal("New accepted a zero Config")
	}
}

func TestSimulateReaderError(t *testing.T) {
	boom := trace.FuncReader(func() (trace.Access, error) {
		return trace.Access{}, errTest
	})
	s := mustSim(mustCfg(1, 1, 1), cache.FIFO)
	if _, err := s.Simulate(boom); err != errTest {
		t.Fatalf("err = %v, want errTest", err)
	}
}

var errTest = errorString("test error")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestAccessorMethods(t *testing.T) {
	cfg := mustCfg(4, 2, 8)
	s := mustSim(cfg, cache.LRU)
	if s.Config() != cfg {
		t.Error("Config mismatch")
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

// mustSim builds a Simulator test fixture, panicking on a config that
// could only be wrong at authoring time.
func mustSim(cfg cache.Config, policy cache.Policy) *Simulator {
	s, err := New(cfg, policy)
	if err != nil {
		panic(err)
	}
	return s
}
