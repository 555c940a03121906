package core

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"dew/internal/workload"
)

// TestResetEquivalence replays the same trace on a Reset simulator and
// on a fresh one, through every entry point; results
// and counters must be identical (a Reset pass is a fresh pass).
func TestResetEquivalence(t *testing.T) {
	tr := workload.Take(workload.CJPEG.Generator(13), 15_000)
	for _, opt := range []Options{
		{MaxLogSets: 6, Assoc: 4, BlockSize: 16},
		{MinLogSets: 2, MaxLogSets: 6, Assoc: 4, BlockSize: 16},
		{MaxLogSets: 5, Assoc: 8, BlockSize: 4, DisableMRE: true},
	} {
		bs := mustStream(t, tr, opt.BlockSize)
		// Alternate entry points across rounds: Reset must restore the
		// memo and histogram state they share.
		replay := func(s *Simulator, round int) {
			if round%2 == 0 {
				for _, a := range tr {
					s.Access(a)
				}
			} else if err := s.SimulateStream(bs); err != nil {
				t.Fatal(err)
			}
		}
		reused := MustNew(opt)
		for round := 0; round < 3; round++ {
			if round > 0 {
				reused.Reset()
			}
			replay(reused, round)
			fresh := MustNew(opt)
			replay(fresh, round)
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
// full stream replay allocates nothing in steady state.
func TestResetZeroAllocs(t *testing.T) {
	tr := workload.Take(workload.G721Dec.Generator(2), 20_000)
	opt := Options{MaxLogSets: 8, Assoc: 4, BlockSize: 16}
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
		t.Errorf("%v allocs per Reset+replay, want 0", avg)
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
		// One Access first: the wave arena is allocated by the first
		// per-access walk, and the poisoning below needs it to exist.
		s.Access(warmup[0])
		if err := s.SimulateStream(mustStream(t, warmup[1:], opt.BlockSize)); err != nil {
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

// TestRebindEquivalence: a simulator rebound from pass to pass — block
// size, associativity up to the width it was built for, an ablation —
// equals a fresh one at every step, whichever entry point (the columnar
// AccessRuns walk or per-access Access) ran last, for trees and forests
// (MinLogSets > 0). Before each rebind every way of
// every arena is poisoned with a tag the next pass requests, so a read
// the fill gate does not cover shows up as a wrong hit. A rejected
// rebind — invalid block size, a wider pass, another set range —
// leaves the simulator untouched.
func TestRebindEquivalence(t *testing.T) {
	tr := workload.Take(workload.MPEG2Dec.Generator(8), 15_000)
	steps := []struct{ block, assoc int }{{16, 8}, {4, 1}, {64, 4}, {8, 8}, {32, 2}, {4, 8}}
	for _, base := range []Options{
		{MaxLogSets: 6},
		{MinLogSets: 2, MaxLogSets: 7},
		{MinLogSets: 1, MaxLogSets: 6},
	} {
		opt := base
		opt.BlockSize, opt.Assoc = steps[0].block, steps[0].assoc
		s := MustNew(opt)
		for round, st := range steps {
			opt.BlockSize, opt.Assoc, opt.DisableMRA = st.block, st.assoc, round == 4
			if round > 0 {
				poisonArenas(s, uint64(tr[round].Addr)>>bits.TrailingZeros(uint(st.block)))
				if err := s.Rebind(opt); err != nil {
					t.Fatal(err)
				}
			}
			fresh := MustNew(opt)
			for _, sim := range []*Simulator{s, fresh} {
				if round%2 == 0 {
					if err := sim.SimulateStream(mustStream(t, tr, st.block)); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, a := range tr {
						sim.Access(a)
					}
				}
			}
			label := fmt.Sprintf("min%d A%d B%d", opt.MinLogSets, opt.Assoc, opt.BlockSize)
			assertSameResults(t, label, fresh, s)
			if fresh.Counters() != s.Counters() {
				t.Errorf("%s: counters %+v, want %+v", label, s.Counters(), fresh.Counters())
			}
			if err := s.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}
		before := s.Results()
		for _, mut := range []func(*Options){
			func(o *Options) { o.BlockSize = 3 },
			func(o *Options) { o.Assoc = 16 },
			func(o *Options) { o.MaxLogSets++ },
			func(o *Options) { o.MinLogSets++ },
		} {
			bad := opt
			mut(&bad)
			if err := s.Rebind(bad); err == nil {
				t.Fatalf("Rebind accepted %+v on a simulator built as %+v", bad, base)
			}
		}
		if !reflect.DeepEqual(s.Results(), before) || s.Options() != opt {
			t.Error("a rejected Rebind changed the simulator")
		}
	}
}

// poisonArenas overwrites every per-way entry of every arena, stale or
// live, with what a pass looking for tag would find most misleading: the
// tag itself, its fingerprint and wave pointer 0. Every read of these arenas must be gated on its node's fill count.
func poisonArenas(s *Simulator, tag uint64) {
	tags := s.tags[:cap(s.tags)]
	for i := range tags {
		tags[i] = tag
	}
	for i := range s.fpsArena {
		s.fpsArena[i] = fingerprint(tag)
	}
	wave := s.wave[:cap(s.wave)]
	for i := range wave {
		wave[i] = 0
	}
}

// TestStreamPassAllocatesNoWalkArenas: a FIFO pass that only runs the
// columnar walk never allocates the per-access walk's wave and MRE
// arenas; the first Access does, with every wave pointer unknown, and
// still matches a fresh simulator fed the same mix.
func TestStreamPassAllocatesNoWalkArenas(t *testing.T) {
	tr := workload.Take(workload.CJPEG.Generator(6), 12_000)
	opt := Options{MaxLogSets: 8, Assoc: 16, BlockSize: 16}
	s := MustNew(opt)
	if err := s.SimulateStream(mustStream(t, tr[:8000], opt.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if s.wave != nil || s.mres != nil {
		t.Fatalf("a pure stream pass allocated the wave (%d) or MRE (%d) arena", len(s.wave), len(s.mres))
	}
	fresh := MustNew(opt)
	for _, a := range tr[:8000] {
		fresh.Access(a)
	}
	for _, sim := range []*Simulator{s, fresh} {
		for _, a := range tr[8000:] {
			sim.Access(a)
		}
	}
	if s.wave == nil || s.mres == nil {
		t.Fatal("Access ran without the wave and MRE arenas")
	}
	assertSameResults(t, "stream then Access", fresh, s)
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
