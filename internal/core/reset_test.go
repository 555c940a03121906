package core

import (
	"fmt"
	"reflect"
	"testing"

	"dew/internal/cache"
	"dew/internal/workload"
)

// TestResetEquivalence replays the same trace on a Reset simulator and
// on a fresh one, through every entry point and both policies; results
// and counters must be identical (a Reset pass is a fresh pass).
func TestResetEquivalence(t *testing.T) {
	tr := workload.Take(workload.CJPEG.Generator(13), 15_000)
	for _, opt := range []Options{
		{MaxLogSets: 6, Assoc: 4, BlockSize: 16},
		{MinLogSets: 2, MaxLogSets: 6, Assoc: 4, BlockSize: 16, Policy: cache.LRU},
		{MaxLogSets: 5, Assoc: 8, BlockSize: 4, Instrument: true},
	} {
		bs := mustStream(t, tr, opt.BlockSize)
		reused := MustNew(opt)
		for round := 0; round < 3; round++ {
			if round > 0 {
				reused.Reset()
			}
			// Alternate entry points across rounds: Reset must restore
			// the memo and histogram state they share.
			switch round {
			case 0:
				reused.AccessBatch(tr)
			default:
				if err := reused.SimulateStream(bs); err != nil {
					t.Fatal(err)
				}
			}
			fresh := MustNew(opt)
			fresh.AccessBatch(tr)
			assertSameResults(t, "reset round", fresh, reused)
			if fresh.Counters() != reused.Counters() {
				t.Errorf("round %d: counters %+v, want %+v", round, reused.Counters(), fresh.Counters())
			}
			if err := reused.CheckInvariants(); err != nil {
				t.Errorf("round %d: %v", round, err)
			}
		}
	}
}

// TestResetZeroAllocs is the satellite's acceptance check: a Reset +
// full stream replay allocates nothing in steady state, for FIFO and
// LRU.
func TestResetZeroAllocs(t *testing.T) {
	tr := workload.Take(workload.G721Dec.Generator(2), 20_000)
	for _, opt := range []Options{
		{MaxLogSets: 8, Assoc: 4, BlockSize: 16},
		{MaxLogSets: 8, Assoc: 4, BlockSize: 16, Policy: cache.LRU},
	} {
		bs := mustStream(t, tr, opt.BlockSize)
		s := MustNew(opt)
		if err := s.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(5, func() {
			s.Reset()
			if err := s.SimulateStream(bs); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%v: %v allocs per Reset+replay, want 0", opt.Policy, avg)
		}
	}
}

// TestResetDropsPendingWaveSettle: a FIFO pass replayed through
// AccessRuns leaves a lazy wave reset pending; Reset must discard it
// rather than leave the first Access after it to sweep the whole wave
// arena. The wave arena is poisoned after Reset — every wave read is
// gated on its node's fill count, so stale entries must stay
// unreachable — and a mix of Access and AccessRuns must then match a
// fresh simulator fed the same mix, with the poison still in place
// after the first Access (no settle sweep ran).
func TestResetDropsPendingWaveSettle(t *testing.T) {
	warmup := workload.Take(workload.MPEG2Dec.Generator(3), 20_000)
	tr := workload.Take(workload.CJPEG.Generator(4), 12_000)
	for _, opt := range []Options{
		{MaxLogSets: 6, Assoc: 4, BlockSize: 16},
		{MinLogSets: 2, MaxLogSets: 7, Assoc: 2, BlockSize: 8},
	} {
		s := MustNew(opt)
		if err := s.SimulateStream(mustStream(t, warmup, opt.BlockSize)); err != nil {
			t.Fatal(err)
		}
		if !s.waveStale {
			t.Fatalf("%+v: AccessRuns left no wave reset pending; the test needs one", opt)
		}
		s.Reset()
		if s.waveStale {
			t.Fatalf("%+v: Reset left the wave reset pending", opt)
		}
		poison := int8(opt.Assoc - 1)
		for i := range s.wave {
			s.wave[i] = poison
		}
		fresh := MustNew(opt)
		mix := func(sim *Simulator, check bool) {
			sim.Access(tr[0])
			if check {
				kept := 0
				for _, w := range sim.wave {
					if w == poison {
						kept++
					}
				}
				if kept < len(sim.wave)-2*opt.Levels() {
					t.Fatalf("%+v: first Access after Reset rewrote %d of %d wave entries: a settle sweep ran",
						opt, len(sim.wave)-kept, len(sim.wave))
				}
			}
			for _, a := range tr[1:4000] {
				sim.Access(a)
			}
			if err := sim.SimulateStream(mustStream(t, tr[4000:9000], opt.BlockSize)); err != nil {
				t.Fatal(err)
			}
			for _, a := range tr[9000:] {
				sim.Access(a)
			}
		}
		mix(s, true)
		mix(fresh, false)
		assertSameResults(t, "reset then mixed replay", fresh, s)
		if fresh.Counters() != s.Counters() {
			t.Errorf("%+v: counters %+v, want %+v", opt, s.Counters(), fresh.Counters())
		}
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("%+v: %v", opt, err)
		}
	}
}

// TestRebindEquivalence: a simulator rebound from block size to block
// size equals a fresh one at every step, whichever entry point — the
// columnar AccessRuns walk or per-access Access — ran last, for FIFO
// and LRU passes and forests (MinLogSets > 0). A rejected block size
// leaves the simulator untouched.
func TestRebindEquivalence(t *testing.T) {
	tr := workload.Take(workload.MPEG2Dec.Generator(8), 15_000)
	blocks := []int{16, 4, 64, 8, 32}
	for _, opt := range []Options{
		{MaxLogSets: 6, Assoc: 4},
		{MinLogSets: 2, MaxLogSets: 7, Assoc: 2},
		{MinLogSets: 1, MaxLogSets: 6, Assoc: 8, Policy: cache.LRU},
	} {
		opt.BlockSize = blocks[0]
		s := MustNew(opt)
		for round, b := range blocks {
			if round > 0 {
				if err := s.Rebind(b); err != nil {
					t.Fatal(err)
				}
			}
			opt.BlockSize = b
			fresh := MustNew(opt)
			for _, sim := range []*Simulator{s, fresh} {
				if round%2 == 0 {
					if err := sim.SimulateStream(mustStream(t, tr, b)); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, a := range tr {
						sim.Access(a)
					}
				}
			}
			label := fmt.Sprintf("%v min%d A%d B%d", opt.Policy, opt.MinLogSets, opt.Assoc, b)
			assertSameResults(t, label, fresh, s)
			if fresh.Counters() != s.Counters() {
				t.Errorf("%s: counters %+v, want %+v", label, s.Counters(), fresh.Counters())
			}
			if err := s.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}
		before := s.Results()
		if err := s.Rebind(3); err == nil {
			t.Fatal("Rebind accepted block size 3")
		}
		if !reflect.DeepEqual(s.Results(), before) {
			t.Error("a rejected Rebind changed the simulator")
		}
	}
}
