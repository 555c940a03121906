package cache

import "testing"

// configs enumerates every configuration in the space.
func configs(p ParamSpace) []Config {
	var out []Config
	for lb := p.MinLogBlock; lb <= p.MaxLogBlock; lb++ {
		for la := p.MinLogAssoc; la <= p.MaxLogAssoc; la++ {
			for ls := p.MinLogSets; ls <= p.MaxLogSets; ls++ {
				out = append(out, Config{Sets: 1 << ls, Assoc: 1 << la, BlockSize: 1 << lb})
			}
		}
	}
	return out
}

func TestPaperSpaceCount(t *testing.T) {
	p := PaperSpace()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table 1: 15 set sizes × 7 block sizes × 5 associativities = 525.
	if got := p.Count(); got != 525 {
		t.Fatalf("PaperSpace count = %d, want 525", got)
	}
	cfgs := configs(p)
	if len(cfgs) != 525 {
		t.Fatalf("len(configs) = %d, want 525", len(cfgs))
	}
	seen := map[Config]bool{}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Fatalf("enumerated invalid config %v: %v", c, err)
		}
		if seen[c] {
			t.Fatalf("duplicate config %v", c)
		}
		seen[c] = true
	}
}

func TestPaperSpaceExtremes(t *testing.T) {
	p := PaperSpace()
	var minSize, maxSize int
	for i, c := range configs(p) {
		sz := c.SizeBytes()
		if i == 0 {
			minSize, maxSize = sz, sz
			continue
		}
		if sz < minSize {
			minSize = sz
		}
		if sz > maxSize {
			maxSize = sz
		}
	}
	// The paper simulates "cache sizes from 1 byte to 16MB".
	if minSize != 1 {
		t.Errorf("min cache size = %d, want 1", minSize)
	}
	if maxSize != 16<<20 {
		t.Errorf("max cache size = %d, want 16MiB", maxSize)
	}
}

func TestSpaceValidate(t *testing.T) {
	bad := []ParamSpace{
		{MinLogSets: -1, MaxLogSets: 3},
		{MinLogSets: 4, MaxLogSets: 3},
		{MaxLogSets: 3, MinLogBlock: 2, MaxLogBlock: 1},
		{MaxLogSets: 3, MaxLogBlock: 2, MinLogAssoc: 5, MaxLogAssoc: 4},
		{MaxLogSets: 31},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate() accepted invalid space %+v", i, p)
		}
	}
}

func TestSpaceAxes(t *testing.T) {
	p := PaperSpace()
	if bs := p.BlockSizes(); len(bs) != 7 || bs[0] != 1 || bs[6] != 64 {
		t.Errorf("BlockSizes = %v", bs)
	}
	if as := p.Assocs(); len(as) != 5 || as[0] != 1 || as[4] != 16 {
		t.Errorf("Assocs = %v", as)
	}
}

func TestStatsRates(t *testing.T) {
	s := Stats{Accesses: 100, Misses: 25}
	if s.MissRate() != 0.25 {
		t.Errorf("MissRate = %f", s.MissRate())
	}
	var zero Stats
	if zero.MissRate() != 0 {
		t.Error("zero-access rates should be 0")
	}
}
