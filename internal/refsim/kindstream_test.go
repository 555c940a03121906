package refsim

import (
	"fmt"
	"math/rand"
	"testing"

	"dew/internal/cache"
	"dew/internal/trace"
)

// kindTestTrace builds a trace that exercises every run shape the kind
// replay folds: all-store bursts to fresh blocks (the no-write-allocate
// bypass), store-led runs that end in loads, fetch streaks and read
// retouches.
func kindTestTrace(n int, seed int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := make(trace.Trace, 0, n)
	var addr uint64
	for len(tr) < n {
		switch rng.Intn(5) {
		case 0: // sequential fetch streak
			for k := 0; k < 2+rng.Intn(10) && len(tr) < n; k++ {
				tr = append(tr, trace.Access{Addr: addr, Kind: trace.IFetch})
				addr += 4
			}
		case 1: // read retouch nearby
			addr -= uint64(rng.Intn(64))
			tr = append(tr, trace.Access{Addr: addr, Kind: trace.DataRead})
		case 2: // store burst to a fresh block, sometimes all-store
			addr = uint64(rng.Intn(1 << 14))
			burst := 1 + rng.Intn(4)
			for k := 0; k < burst && len(tr) < n; k++ {
				tr = append(tr, trace.Access{Addr: addr, Kind: trace.DataWrite})
			}
			if rng.Intn(2) == 0 && len(tr) < n {
				// store-led run that installs via its first non-store
				tr = append(tr, trace.Access{Addr: addr, Kind: trace.DataRead})
			}
		case 3: // mixed same-block run: read then writes
			addr = uint64(rng.Intn(1 << 14))
			tr = append(tr, trace.Access{Addr: addr, Kind: trace.DataRead})
			for k := 0; k < rng.Intn(3) && len(tr) < n; k++ {
				tr = append(tr, trace.Access{Addr: addr, Kind: trace.DataWrite})
			}
		default: // jump write
			addr = uint64(rng.Intn(1 << 14))
			tr = append(tr, trace.Access{Addr: addr, Kind: trace.DataWrite})
		}
	}
	return tr
}

// assertStatsAndTrafficEqual compares the complete statistics record,
// per-kind splits and traffic counters included.
func assertStatsAndTrafficEqual(t *testing.T, label string, wantS, gotS Stats, wantT, gotT Traffic) {
	t.Helper()
	assertKindFreeStatsEqual(t, label, wantS, gotS)
	for k := range wantS.AccessesByKind {
		if wantS.AccessesByKind[k] != gotS.AccessesByKind[k] {
			t.Errorf("%s: AccessesByKind[%d] = %d, want %d", label, k, gotS.AccessesByKind[k], wantS.AccessesByKind[k])
		}
		if wantS.MissesByKind[k] != gotS.MissesByKind[k] {
			t.Errorf("%s: MissesByKind[%d] = %d, want %d", label, k, gotS.MissesByKind[k], wantS.MissesByKind[k])
		}
	}
	if wantT != gotT {
		t.Errorf("%s: Traffic = %+v, want %+v", label, gotT, wantT)
	}
}

var writeCombos = []struct {
	write WritePolicy
	alloc AllocPolicy
}{
	{WriteBack, WriteAllocate},
	{WriteBack, NoWriteAllocate},
	{WriteThrough, WriteAllocate},
	{WriteThrough, NoWriteAllocate},
}

// TestKindStreamEquivalence proves the kind-preserving stream replay
// bit-identical — statistics and traffic — to the per-access replay for
// every WritePolicy × AllocPolicy × replacement policy combination.
func TestKindStreamEquivalence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		tr := kindTestTrace(12_000, seed)
		for _, policy := range []cache.Policy{cache.FIFO, cache.LRU, cache.Random} {
			for _, cfg := range []cache.Config{
				mustCfg(8, 4, 16),
				mustCfg(64, 2, 4),
				mustCfg(1, 8, 32),
				mustCfg(16, 1, 8),
			} {
				bs, err := trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), cfg.BlockSize)
				if err != nil {
					t.Fatal(err)
				}
				for _, combo := range writeCombos {
					label := fmt.Sprintf("seed%d/%v/%v/%v/%v", seed, policy, cfg, combo.write, combo.alloc)
					o := Options{Config: cfg, Replacement: policy, Write: combo.write, Alloc: combo.alloc, StoreBytes: 2}
					ref, err := NewSim(o)
					if err != nil {
						t.Fatal(err)
					}
					wantS, err := ref.Simulate(tr.NewSliceReader())
					if err != nil {
						t.Fatal(err)
					}
					sim, err := NewSim(o)
					if err != nil {
						t.Fatal(err)
					}
					gotS, err := sim.SimulateStream(bs)
					if err != nil {
						t.Fatal(err)
					}
					assertStatsAndTrafficEqual(t, label, wantS, gotS, ref.Traffic(), sim.Traffic())
				}
			}
		}
	}
}

// TestKindStreamPerKindStats: a plain (non-write) simulator replaying a
// kind stream now reproduces the per-kind splits the per-access replay
// keeps — the piece the kind-free stream drops.
func TestKindStreamPerKindStats(t *testing.T) {
	tr := kindTestTrace(10_000, 9)
	for _, policy := range []cache.Policy{cache.FIFO, cache.LRU, cache.Random} {
		cfg := mustCfg(16, 2, 8)
		want, err := RunTrace(cfg, policy, tr)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), cfg.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runStream(cfg, policy, bs)
		if err != nil {
			t.Fatal(err)
		}
		assertStatsAndTrafficEqual(t, fmt.Sprintf("%v", policy), want, got, Traffic{}, Traffic{})
	}
}

// TestKindStreamCraftedRuns pins the no-write-allocate bypass fold on
// hand-built kind streams where the per-access expansion is easy to
// reason about: all-store runs leave the block cold, store-led runs
// install at the first non-store, and repeated bypasses re-scan the set.
func TestKindStreamCraftedRuns(t *testing.T) {
	cfg := mustCfg(1, 2, 4)
	mk := func(kinds ...trace.Kind) trace.Trace {
		tr := make(trace.Trace, len(kinds))
		for i, k := range kinds {
			tr[i] = trace.Access{Addr: 0x40, Kind: k}
		}
		return tr
	}
	cases := [][]trace.Kind{
		{trace.DataWrite, trace.DataWrite, trace.DataWrite},
		{trace.DataWrite, trace.DataWrite, trace.DataRead, trace.DataWrite},
		{trace.DataRead, trace.DataWrite, trace.DataWrite},
		{trace.IFetch, trace.IFetch, trace.DataWrite},
	}
	for ci, kinds := range cases {
		tr := mk(kinds...)
		for _, combo := range writeCombos {
			o := Options{Config: cfg, Replacement: cache.LRU, Write: combo.write, Alloc: combo.alloc}
			ref, err := NewSim(o)
			if err != nil {
				t.Fatal(err)
			}
			wantS, err := ref.Simulate(tr.NewSliceReader())
			if err != nil {
				t.Fatal(err)
			}
			bs, err := trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), cfg.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			if bs.Len() != 1 {
				t.Fatalf("case %d: crafted trace split into %d runs", ci, bs.Len())
			}
			sim, err := NewSim(o)
			if err != nil {
				t.Fatal(err)
			}
			gotS, err := sim.SimulateStream(bs)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("case%d/%v/%v", ci, combo.write, combo.alloc)
			assertStatsAndTrafficEqual(t, label, wantS, gotS, ref.Traffic(), sim.Traffic())
		}
	}
}
