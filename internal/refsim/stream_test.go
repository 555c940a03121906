package refsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dew/internal/cache"
	"dew/internal/trace"
)

// streamTestTrace mixes runs (sequential fetch inside a block) with
// random jumps so both the fold and the walk paths are exercised.
func streamTestTrace(n int, seed int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := make(trace.Trace, 0, n)
	var addr uint64
	for len(tr) < n {
		switch rng.Intn(3) {
		case 0: // sequential run
			for k := 0; k < 2+rng.Intn(10) && len(tr) < n; k++ {
				tr = append(tr, trace.Access{Addr: addr, Kind: trace.IFetch})
				addr += 4
			}
		case 1: // re-touch nearby
			addr = addr - uint64(rng.Intn(64))
			tr = append(tr, trace.Access{Addr: addr, Kind: trace.DataRead})
		default: // jump
			addr = uint64(rng.Intn(1 << 14))
			tr = append(tr, trace.Access{Addr: addr, Kind: trace.DataWrite})
		}
	}
	return tr
}

// sparseTrace spreads accesses over the whole 64-bit address space: a
// pool of random base addresses — almost surely each in a
// compulsory-miss range of its own, so the trace spans thousands of
// ranges — plus the top of the space, revisited with short sequential
// runs so hits, repeats and evictions still occur.
func sparseTrace(n int, rng *rand.Rand) trace.Trace {
	bases := make([]uint64, 3000)
	for i := range bases {
		bases[i] = rng.Uint64()
	}
	bases[0] = math.MaxUint64 - 63
	tr := make(trace.Trace, 0, n)
	for len(tr) < n {
		addr := bases[rng.Intn(len(bases))]
		for k := 0; k < 1+rng.Intn(6) && len(tr) < n; k++ {
			tr = append(tr, trace.Access{Addr: addr, Kind: trace.Kind(rng.Intn(3))})
			addr += 4
		}
	}
	return tr
}

// assertKindFreeStatsEqual compares the statistics a block stream can
// reproduce (everything except the per-kind splits).
func assertKindFreeStatsEqual(t *testing.T, label string, want, got Stats) {
	t.Helper()
	if want.Accesses != got.Accesses {
		t.Errorf("%s: Accesses = %d, want %d", label, got.Accesses, want.Accesses)
	}
	if want.Misses != got.Misses {
		t.Errorf("%s: Misses = %d, want %d", label, got.Misses, want.Misses)
	}
	if want.CompulsoryMisses != got.CompulsoryMisses {
		t.Errorf("%s: CompulsoryMisses = %d, want %d", label, got.CompulsoryMisses, want.CompulsoryMisses)
	}
	if want.Evictions != got.Evictions {
		t.Errorf("%s: Evictions = %d, want %d", label, got.Evictions, want.Evictions)
	}
	if want.TagComparisons != got.TagComparisons {
		t.Errorf("%s: TagComparisons = %d, want %d", label, got.TagComparisons, want.TagComparisons)
	}
}

// TestSimulateStreamEquivalence proves the stream replay bit-identical
// to the trace replay for every policy across configurations, including
// the per-repeat tag-comparison fold, on dense traces and on a sparse
// one that spans thousands of compulsory-miss ranges.
func TestSimulateStreamEquivalence(t *testing.T) {
	traces := map[string]trace.Trace{"sparse": sparseTrace(12_000, testRand(t, 1))}
	for seed := int64(0); seed < 3; seed++ {
		traces[fmt.Sprintf("seed%d", seed)] = streamTestTrace(12_000, seed)
	}
	for name, tr := range traces {
		for _, policy := range []cache.Policy{cache.FIFO, cache.LRU, cache.Random} {
			for _, cfg := range []cache.Config{
				mustCfg(8, 4, 16),
				mustCfg(64, 2, 4),
				mustCfg(1, 8, 32),
				mustCfg(16, 1, 8),
			} {
				label := fmt.Sprintf("%s/%v/%v", name, policy, cfg)
				bs, err := tr.BlockStream(cfg.BlockSize)
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunTrace(cfg, policy, tr)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunStream(cfg, policy, bs)
				if err != nil {
					t.Fatal(err)
				}
				assertKindFreeStatsEqual(t, label, want, got)
			}
		}
	}
}

// TestSimulateStreamRejects guards the two invalid replays: a stream at
// the wrong block size, and a write-policy simulator (which needs
// kinds).
func TestSimulateStreamRejects(t *testing.T) {
	bs, err := trace.Trace{{Addr: 0}}.BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSim(mustCfg(4, 2, 32), cache.FIFO)
	if _, err := s.SimulateStream(bs); err == nil {
		t.Error("block-size mismatch accepted")
	}
	ws, err := NewSim(Options{Config: mustCfg(4, 2, 16), Replacement: cache.FIFO})
	if err != nil {
		t.Fatal(err)
	}
	bs16, err := trace.Trace{{Addr: 0}}.BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.SimulateStream(bs16); err == nil {
		t.Error("write-policy simulator accepted a kind-free stream")
	}
}

// FuzzRefStream fuzzes the kind-free stream replay against per-access
// replay. The fuzzer picks the addresses — small strides, repeats of
// the current address, and full 64-bit jumps for sparse traces — the
// geometry and the policy. The two replays must agree on every Stats
// field (a kind-free stream carries no kinds, so the per-kind splits
// are compared as zero), a Reset and replay must reproduce the pass,
// and CompulsoryMisses must equal a plain map's distinct-block count.
func FuzzRefStream(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 250, 7}, uint8(1), uint8(0))
	f.Add([]byte{230, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 4, 8, 245}, uint8(70), uint8(12))
	f.Add([]byte{224, 1, 2, 3, 4, 5, 6, 7, 8, 231, 8, 7, 6, 5, 4, 3, 2, 1, 3, 3}, uint8(131), uint8(18))
	f.Add([]byte{40, 41, 40, 41, 40, 41}, uint8(200), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, geom, pol uint8) {
		cfg := mustCfg(1<<(geom%6), 1<<(geom/64), 1<<(pol%7))
		policy := []cache.Policy{cache.FIFO, cache.LRU, cache.Random}[int(pol/8)%3]

		var tr trace.Trace
		var addr uint64
		for i := 0; i < len(data); i++ {
			switch b := data[i]; {
			case b >= 240:
				for k := 0; k < int(b-239); k++ {
					tr = append(tr, trace.Access{Addr: addr})
				}
				continue
			case b >= 224 && i+8 < len(data):
				addr = binary.LittleEndian.Uint64(data[i+1:])
				i += 8
			default:
				addr += uint64(b)
			}
			tr = append(tr, trace.Access{Addr: addr})
		}

		want, err := RunTrace(cfg, policy, tr)
		if err != nil {
			t.Fatal(err)
		}
		want.AccessesByKind, want.MissesByKind = [3]uint64{}, [3]uint64{}
		bs, err := tr.BlockStream(cfg.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		sim := mustSim(cfg, policy)
		for pass := 0; pass < 2; pass++ {
			got, err := sim.SimulateStream(bs)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("pass %d, %v %v: stream %+v, per-access %+v", pass, policy, cfg, got, want)
			}
			sim.Reset()
		}
		distinct := map[uint64]bool{}
		for _, a := range tr {
			distinct[cfg.BlockAddr(a.Addr)] = true
		}
		if want.CompulsoryMisses != uint64(len(distinct)) {
			t.Fatalf("%v: compulsory %d, distinct blocks %d", cfg, want.CompulsoryMisses, len(distinct))
		}
	})
}
