package energy

import (
	"strings"
	"testing"

	"dew/internal/cache"
	"dew/internal/trace"
)

func TestAccessEnergyMonotoneInSize(t *testing.T) {
	m := DefaultModel()
	small := m.AccessEnergy(mustCfg(16, 1, 16))
	large := m.AccessEnergy(mustCfg(1024, 1, 16))
	if large <= small {
		t.Errorf("access energy should grow with size: %f vs %f", small, large)
	}
	lowAssoc := m.AccessEnergy(mustCfg(64, 1, 16))
	highAssoc := m.AccessEnergy(mustCfg(64, 8, 16))
	if highAssoc <= lowAssoc {
		t.Errorf("access energy should grow with associativity: %f vs %f", lowAssoc, highAssoc)
	}
}

func TestMissPenaltyGrowsWithBlock(t *testing.T) {
	m := DefaultModel()
	if m.MissPenalty(mustCfg(1, 1, 64)) <= m.MissPenalty(mustCfg(1, 1, 4)) {
		t.Error("miss penalty should grow with block size")
	}
}

func TestTotalComposition(t *testing.T) {
	m := DefaultModel()
	cfg := mustCfg(64, 2, 16)
	s := cache.Stats{Accesses: 1000, Misses: 100}
	want := 1000*m.AccessEnergy(cfg) + 100*m.MissPenalty(cfg)
	if got := m.Total(cfg, s); got != want {
		t.Errorf("Total = %f, want %f", got, want)
	}
}

func TestRankPrefersFewMissesOverTinySize(t *testing.T) {
	m := DefaultModel()
	// Tiny cache thrashing vs a modest cache hitting: misses dominate.
	thrash := mustCfg(1, 1, 4)
	decent := mustCfg(64, 2, 16)
	results := map[cache.Config]cache.Stats{
		thrash: {Accesses: 100000, Misses: 60000},
		decent: {Accesses: 100000, Misses: 2000},
	}
	ranked := m.Rank(results)
	if len(ranked) != 2 {
		t.Fatalf("ranked %d", len(ranked))
	}
	if ranked[0].Config != decent {
		t.Errorf("best config = %v, want %v", ranked[0].Config, decent)
	}
	if ranked[0].Energy >= ranked[1].Energy {
		t.Error("ranking not ascending by energy")
	}
}

func TestRankPenalizesOversizedCache(t *testing.T) {
	m := DefaultModel()
	// Identical miss counts: the smaller cache must win on access
	// energy + leakage.
	smaller := mustCfg(256, 2, 16)
	huge := mustCfg(16384, 16, 64)
	results := map[cache.Config]cache.Stats{
		smaller: {Accesses: 100000, Misses: 500},
		huge:    {Accesses: 100000, Misses: 500},
	}
	ranked := m.Rank(results)
	if ranked[0].Config != smaller {
		t.Errorf("best config = %v, want the smaller one", ranked[0].Config)
	}
}

func TestRankDeterministicOnTies(t *testing.T) {
	var m Model // zero model: every energy is 0, exercising tie-breaks
	a := mustCfg(2, 1, 4)
	b := mustCfg(1, 2, 4)
	c := mustCfg(1, 1, 8)
	results := map[cache.Config]cache.Stats{a: {}, b: {}, c: {}}
	first := m.Rank(results)
	for i := 0; i < 5; i++ {
		again := m.Rank(results)
		for j := range first {
			if first[j].Config != again[j].Config {
				t.Fatalf("tie ordering unstable at %d: %v vs %v", j, first[j].Config, again[j].Config)
			}
		}
	}
}

func TestScoredString(t *testing.T) {
	s := Scored{Config: mustCfg(4, 1, 4), Stats: cache.Stats{Accesses: 10, Misses: 5}, Energy: 12}
	if out := s.String(); !strings.Contains(out, "missRate=0.5000") || !strings.Contains(out, "pJ") {
		t.Errorf("String = %q", out)
	}
}

func TestTotalSplitDegradesToTotal(t *testing.T) {
	m := DefaultModel()
	cfg := mustCfg(64, 2, 16)
	s := cache.Stats{Accesses: 1000, Misses: 100}
	// No stores: TotalSplit must reproduce Total exactly.
	if got, want := m.TotalSplit(cfg, s, 0), m.Total(cfg, s); got != want {
		t.Errorf("TotalSplit(0 writes) = %f, want %f", got, want)
	}
	// Exact composition with a store share.
	want := 700*m.AccessEnergy(cfg) + 300*m.AccessEnergy(cfg)*m.WriteEnergyFactor +
		100*m.MissPenalty(cfg)
	if got := m.TotalSplit(cfg, s, 300); got != want {
		t.Errorf("TotalSplit = %f, want %f", got, want)
	}
	if m.TotalSplit(cfg, s, 600) <= m.TotalSplit(cfg, s, 300) {
		t.Error("more stores should cost more under a factor > 1")
	}
	// A zero write factor prices stores like any other access.
	m.WriteEnergyFactor = 0
	if got, want := m.TotalSplit(cfg, s, 300), m.Total(cfg, s); got != want {
		t.Errorf("TotalSplit with zero factor = %f, want %f", got, want)
	}
}

func TestRankSplitOrdersLikeRank(t *testing.T) {
	m := DefaultModel()
	a := mustCfg(64, 2, 16)
	b := mustCfg(1, 1, 4)
	results := map[cache.Config]cache.Stats{
		a: {Accesses: 100000, Misses: 2000},
		b: {Accesses: 100000, Misses: 60000},
	}
	kinds := [3]uint64{trace.DataRead: 60000, trace.DataWrite: 30000, trace.IFetch: 10000}
	ranked := m.RankSplit(results, kinds)
	if len(ranked) != 2 || ranked[0].Config != a {
		t.Fatalf("RankSplit order wrong: %+v", ranked)
	}
	for _, s := range ranked {
		if want := m.TotalSplit(s.Config, s.Stats, 30000); s.Energy != want {
			t.Errorf("RankSplit energy for %v = %f, want %f", s.Config, s.Energy, want)
		}
	}
	// All-zero kinds: RankSplit degrades to Rank's energies.
	plain := m.Rank(results)
	zero := m.RankSplit(results, [3]uint64{})
	for i := range plain {
		if plain[i] != zero[i] {
			t.Errorf("RankSplit with no stores diverges at %d: %+v vs %+v", i, zero[i], plain[i])
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
