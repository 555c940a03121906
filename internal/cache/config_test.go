package cache

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewConfigValid(t *testing.T) {
	cases := []struct{ s, a, b int }{
		{1, 1, 1},
		{2, 1, 4},
		{256, 4, 32},
		{16384, 16, 64},
	}
	for _, c := range cases {
		cfg, err := NewConfig(c.s, c.a, c.b)
		if err != nil {
			t.Fatalf("NewConfig(%d,%d,%d): %v", c.s, c.a, c.b, err)
		}
		if cfg.SizeBytes() != c.s*c.a*c.b {
			t.Errorf("SizeBytes = %d, want %d", cfg.SizeBytes(), c.s*c.a*c.b)
		}
	}
}

func TestNewConfigInvalid(t *testing.T) {
	cases := []struct {
		s, a, b int
		wantSub string
	}{
		{0, 1, 1, "sets"},
		{3, 1, 1, "sets"},
		{-4, 1, 1, "sets"},
		{4, 0, 1, "associativity"},
		{4, 3, 1, "associativity"},
		{4, 1, 0, "block size"},
		{4, 1, 48, "block size"},
	}
	for _, c := range cases {
		_, err := NewConfig(c.s, c.a, c.b)
		if err == nil {
			t.Fatalf("NewConfig(%d,%d,%d): want error", c.s, c.a, c.b)
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("NewConfig(%d,%d,%d) error %q does not mention %q", c.s, c.a, c.b, err, c.wantSub)
		}
	}
}

func TestNewConfigRejectsInvalid(t *testing.T) {
	if _, err := NewConfig(3, 1, 1); err == nil {
		t.Fatal("NewConfig(3,1,1) accepted non-power-of-two sets")
	}
}

func TestAddressMapping(t *testing.T) {
	cfg := mustCfg(256, 4, 32) // 8 index bits, 5 offset bits
	if got := cfg.IndexBits(); got != 8 {
		t.Fatalf("IndexBits = %d, want 8", got)
	}
	if got := cfg.OffsetBits(); got != 5 {
		t.Fatalf("OffsetBits = %d, want 5", got)
	}
	const addr = 0xDEADBEEF
	if got, want := cfg.BlockAddr(addr), uint64(addr>>5); got != want {
		t.Errorf("BlockAddr = %#x, want %#x", got, want)
	}
}

func TestAddressMappingDegenerate(t *testing.T) {
	// 1 set, block size 1: no index bits, and the block address is the
	// full address.
	cfg := mustCfg(1, 2, 1)
	if cfg.IndexBits() != 0 || cfg.OffsetBits() != 0 {
		t.Errorf("IndexBits, OffsetBits = %d, %d, want 0, 0", cfg.IndexBits(), cfg.OffsetBits())
	}
	for _, addr := range []uint64{0, 1, 12345, 1 << 40} {
		if cfg.BlockAddr(addr) != addr {
			t.Errorf("BlockAddr(%d) = %d, want %d", addr, cfg.BlockAddr(addr), addr)
		}
	}
}

// The block address (tag and set index together) and the in-block
// offset must reconstruct the byte address: the mapping loses no
// information. Checked as a property over random addresses and
// configurations.
func TestTagIndexReconstruction(t *testing.T) {
	f := func(addr uint64, lsRaw, lbRaw uint8) bool {
		ls := int(lsRaw % 15)
		lb := int(lbRaw % 7)
		cfg := mustCfg(1<<ls, 1, 1<<lb)
		rebuilt := cfg.BlockAddr(addr)<<uint(cfg.OffsetBits()) | addr&uint64(cfg.BlockSize-1)
		return rebuilt == addr && cfg.IndexBits() == ls
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Two addresses inside the same block must map to the same block address,
// hence the same set and tag.
func TestSameBlockSameSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := mustCfg(64, 2, 16)
	for i := 0; i < 1000; i++ {
		base := uint64(rng.Int63()) &^ 15 // block-aligned
		off := uint64(rng.Intn(16))
		if cfg.BlockAddr(base) != cfg.BlockAddr(base+off) {
			t.Fatalf("addresses %#x and %#x map differently", base, base+off)
		}
	}
}

func TestConfigString(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{mustCfg(256, 4, 32), "S=256 A=4 B=32 (32KiB)"},
		{mustCfg(1, 1, 1), "S=1 A=1 B=1 (1B)"},
		{mustCfg(16384, 16, 64), "S=16384 A=16 B=64 (16MiB)"},
	}
	for _, c := range cases {
		if got := c.cfg.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestFormatSize(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{1, "1B"},
		{512, "512B"},
		{1024, "1KiB"},
		{1536, "1536B"}, // not a whole KiB
		{1 << 20, "1MiB"},
		{3 << 20, "3MiB"},
	}
	for _, c := range cases {
		if got := FormatSize(c.n); got != c.want {
			t.Errorf("FormatSize(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{FIFO, LRU, Random} {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("round trip of %v gave %v", p, got)
		}
	}
	if _, err := ParsePolicy("MRU"); err == nil {
		t.Error("ParsePolicy(MRU) should fail")
	}
	if s := Policy(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown policy string = %q", s)
	}
}

// mustCfg builds a Config test fixture, panicking on parameters that
// could only be wrong at authoring time.
func mustCfg(sets, assoc, blockSize int) Config {
	c, err := NewConfig(sets, assoc, blockSize)
	if err != nil {
		panic(err)
	}
	return c
}
