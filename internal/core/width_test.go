package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dew/internal/cache"
	"dew/internal/refsim"
	"dew/internal/trace"
)

// widthTrace draws a trace for a pass whose deepest level holds ways
// ways in total, from a pool of 2*ways random block IDs at the given
// block size. The cold phase, the first cold accesses, requests the
// first ways IDs of the pool in order, each followed now and then by a
// re-read of an earlier one: it leaves the shallow levels full and the
// deepest level's nodes filled about to their width, some short of it.
// The warm phase draws from the whole pool and from a hot quarter of
// it. Every request repeats one to three times at varying offsets
// inside its block, so the block stream has runs.
func widthTrace(rng *rand.Rand, ways, blockSize int) (tr trace.Trace, cold int) {
	pool := make([]uint64, 2*ways)
	for i := range pool {
		pool[i] = rng.Uint64() >> 20
	}
	request := func(id uint64) {
		for k := rng.Intn(3); k >= 0; k-- {
			tr = append(tr, trace.Access{Addr: id*uint64(blockSize) + uint64(rng.Intn(blockSize))})
		}
	}
	for i := 0; i < ways; i++ {
		request(pool[i])
		if rng.Intn(4) == 0 {
			request(pool[rng.Intn(i+1)])
		}
	}
	cold = len(tr)
	for i := 0; i < 3*ways; i++ {
		if rng.Intn(5) < 2 {
			request(pool[rng.Intn(ways/4+1)])
		} else {
			request(pool[rng.Intn(len(pool))])
		}
	}
	return tr, cold
}

// replayChunked replays bs through AccessRuns with every run of weight
// more than 1 cut in two and the columns cut into chunks of 1 to 64
// entries, so chunks start in the middle of a run.
func replayChunked(rng *rand.Rand, s *Simulator, bs *trace.BlockStream) {
	var ids []uint64
	var runs []uint32
	for i, id := range bs.IDs {
		if w := bs.Runs[i]; w > 1 {
			ids = append(ids, id, id)
			runs = append(runs, w/2, w-w/2)
		} else {
			ids = append(ids, id)
			runs = append(runs, w)
		}
	}
	for lo := 0; lo < len(ids); {
		hi := min(lo+1+rng.Intn(64), len(ids))
		s.AccessRuns(ids[lo:hi], runs[lo:hi])
		lo = hi
	}
}

// TestStreamWalkEveryWidth runs the columnar FIFO walk's compiled copy
// for every associativity the simulator accepts through a cold phase
// (nodes filling) and a warm phase (full nodes evicting) of a seeded
// trace, printed on failure. After each phase, three simulators fed
// through the walk must equal a fresh simulator fed per-access Access,
// and every configuration must equal per-access refsim replay:
//
//   - a fresh simulator replaying each phase's block stream;
//   - one simulator built at 64 ways that replays the whole trace at 64
//     ways before each width's run and is then rebound to the width, so
//     its tag and fingerprint arenas hold stale entries of the very same
//     IDs beyond every node's fill;
//   - a fresh simulator fed AccessRuns chunks that cut runs in two.
//
// The pass has seven levels, so the walk's record prefetch runs, over a
// forest (MinLogSets > 0).
func TestStreamWalkEveryWidth(t *testing.T) {
	const seed = 1
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("random seed: %d", seed)
		}
	})
	rng := rand.New(rand.NewSource(seed))

	const minLog, maxLog, blockSize = 1, 7, 4
	wideOpt := Options{MinLogSets: minLog, MaxLogSets: maxLog, Assoc: 64, BlockSize: blockSize}
	wide := MustNew(wideOpt)
	for _, assoc := range []int{1, 2, 4, 8, 16, 32, 64} {
		opt := wideOpt
		opt.Assoc = assoc
		tr, cold := widthTrace(rng, assoc<<maxLog, blockSize)

		if err := wide.Rebind(wideOpt); err != nil {
			t.Fatal(err)
		}
		if err := wide.SimulateStream(mustStream(t, tr, blockSize)); err != nil {
			t.Fatal(err)
		}
		if err := wide.Rebind(opt); err != nil {
			t.Fatal(err)
		}
		want, stream, chunked := MustNew(opt), MustNew(opt), MustNew(opt)

		for phase, part := range []trace.Trace{tr[:cold], tr[cold:]} {
			label := fmt.Sprintf("A=%d %s phase", assoc, []string{"cold", "warm"}[phase])
			for _, a := range part {
				want.Access(a)
			}
			bs := mustStream(t, part, blockSize)
			for _, s := range []*Simulator{stream, wide} {
				if err := s.SimulateStream(bs); err != nil {
					t.Fatal(err)
				}
			}
			replayChunked(rng, chunked, bs)

			// Premise: the cold phase leaves some deepest node short of
			// its width, and the warm phase fills some.
			deep := want.levels[len(want.levels)-1].node
			partial, full := false, false
			for _, nd := range deep {
				partial = partial || nd.fill < int8(assoc)
				full = full || nd.fill == int8(assoc)
			}
			if phase == 0 && assoc > 1 && !partial || !full {
				t.Fatalf("%s: premise: deepest level partial %v, full %v", label, partial, full)
			}

			for name, s := range map[string]*Simulator{"stream": stream, "rebound from 64 ways": wide, "chunked": chunked} {
				assertSameResults(t, label+" "+name, want, s)
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("%s %s: %v", label, name, err)
				}
				if got := s.Counters().Accesses; got != want.Counters().Accesses {
					t.Errorf("%s %s: Accesses = %d, want %d", label, name, got, want.Counters().Accesses)
				}
			}
			done := tr[:cold+phase*(len(tr)-cold)]
			for _, res := range want.Results() {
				ref, err := refsim.RunTrace(res.Config, cache.FIFO, done)
				if err != nil {
					t.Fatal(err)
				}
				if res.Misses != ref.Misses || res.Accesses != ref.Accesses {
					t.Errorf("%s: config %v: DEW %d/%d misses, reference %d/%d",
						label, res.Config, res.Misses, res.Accesses, ref.Misses, ref.Accesses)
				}
			}
		}
	}
}
