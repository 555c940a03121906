package refsim_test

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"dew/internal/cache"
	"dew/internal/engine"
	"dew/internal/leakcheck"
	"dew/internal/refsim"
	"dew/internal/trace"
	"dew/internal/workload"
)

// The set-sharded reference replay is the ref engine's
// (engine.Engine.SimulateSharded over the engine's one sharded pass);
// these tests hold it to this package's per-access and stream replays
// on every statistic, traffic included.

func shardTrace(rng *rand.Rand, n int) trace.Trace {
	tr := make(trace.Trace, 0, n)
	addr := uint64(0)
	for len(tr) < n {
		switch rng.Intn(4) {
		case 0:
			run := rng.Intn(40) + 1
			for i := 0; i < run && len(tr) < n; i++ {
				tr = append(tr, trace.Access{Addr: addr, Kind: trace.IFetch})
				addr += 4
			}
		case 1:
			addr = uint64(rng.Intn(1 << 13))
			tr = append(tr, trace.Access{Addr: addr, Kind: trace.DataRead})
		default:
			addr += uint64(rng.Intn(96))
			tr = append(tr, trace.Access{Addr: addr, Kind: trace.DataWrite})
		}
	}
	return tr
}

func config(t testing.TB, sets, assoc, block int) cache.Config {
	t.Helper()
	cfg, err := cache.NewConfig(sets, assoc, block)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// writeCombos are the four write × allocation policy combinations.
var writeCombos = []struct {
	write refsim.WritePolicy
	alloc refsim.AllocPolicy
}{
	{refsim.WriteBack, refsim.WriteAllocate},
	{refsim.WriteBack, refsim.NoWriteAllocate},
	{refsim.WriteThrough, refsim.WriteAllocate},
	{refsim.WriteThrough, refsim.NoWriteAllocate},
}

// newRef builds the ref engine for o's configuration; writeSim selects
// the write-policy simulation o describes.
func newRef(t testing.TB, o refsim.Options, writeSim bool, workers int) engine.Engine {
	t.Helper()
	logSets := bits.Len(uint(o.Config.Sets)) - 1
	e, err := engine.New("ref", engine.Spec{
		MinLogSets: logSets, MaxLogSets: logSets, Assoc: o.Config.Assoc, BlockSize: o.Config.BlockSize,
		Policy: o.Replacement, Workers: workers,
		WriteSim: writeSim, Write: o.Write, Alloc: o.Alloc, StoreBytes: o.StoreBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustShard(t testing.TB, bs *trace.BlockStream, log int) *trace.ShardStream {
	t.Helper()
	ss, err := trace.ShardBlockStream(bs, log)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// replaySharded replays ss through e and returns the stitched record.
func replaySharded(t testing.TB, e engine.Engine, ss *trace.ShardStream) (refsim.Stats, refsim.Traffic) {
	t.Helper()
	if err := e.SimulateSharded(context.Background(), ss); err != nil {
		t.Fatal(err)
	}
	return e.(engine.RefStatser).RefStats(), e.(engine.TrafficStatser).RefTraffic()
}

// sameRecord fails unless the sharded record equals the per-access one
// on every field.
func sameRecord(t testing.TB, label string, gotS, wantS refsim.Stats, gotT, wantT refsim.Traffic) {
	t.Helper()
	if gotS != wantS {
		t.Errorf("%s: sharded stats %+v, want %+v", label, gotS, wantS)
	}
	if gotT != wantT {
		t.Errorf("%s: sharded traffic %+v, want %+v", label, gotT, wantT)
	}
}

// perAccess replays tr one access at a time through a write-policy
// simulator for o and returns its record.
func perAccess(t testing.TB, o refsim.Options, tr trace.Trace) (refsim.Stats, refsim.Traffic) {
	t.Helper()
	s, err := refsim.NewSim(o)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Simulate(tr.NewSliceReader())
	if err != nil {
		t.Fatal(err)
	}
	return st, s.Traffic()
}

// TestShardedMatchesMonolithic is the exactness claim: for every
// (sets, assoc, policy, shard level) the sharded replay of a kind-free
// stream equals the monolithic stream replay bit for bit, decomposing
// exactly when the configuration has at least 2^S sets.
func TestShardedMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := shardTrace(rng, 30000)
	const block = 8
	bs, err := tr.BlockStream(block)
	if err != nil {
		t.Fatal(err)
	}
	for _, logSets := range []int{0, 1, 3, 5} {
		for _, assoc := range []int{1, 2, 4} {
			cfg := config(t, 1<<logSets, assoc, block)
			for _, policy := range []cache.Policy{cache.FIFO, cache.LRU} {
				mono, err := refsim.New(cfg, policy)
				if err != nil {
					t.Fatal(err)
				}
				want, err := mono.SimulateStream(bs)
				if err != nil {
					t.Fatal(err)
				}
				for log := 0; log <= 4; log++ {
					e := newRef(t, refsim.Options{Config: cfg, Replacement: policy}, false, 3)
					got, _ := replaySharded(t, e, mustShard(t, bs, log))
					if wantPar := log <= logSets; engine.Parallel(e) != wantPar {
						t.Fatalf("sets=%d log=%d: Parallel()=%v, want %v", cfg.Sets, log, engine.Parallel(e), wantPar)
					}
					if got != want {
						t.Errorf("sets=%d assoc=%d %v S=%d: sharded %+v, monolithic %+v",
							cfg.Sets, assoc, policy, log, got, want)
					}
				}
			}
		}
	}
}

// TestShardedRandomFallsBack checks the Random policy keeps the exact
// monolithic replay (its replacement stream is global, not per-set).
func TestShardedRandomFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := shardTrace(rng, 8000)
	bs, err := tr.BlockStream(4)
	if err != nil {
		t.Fatal(err)
	}
	o := refsim.Options{Config: config(t, 64, 2, 4), Replacement: cache.Random}
	e := newRef(t, o, false, 2)
	got, _ := replaySharded(t, e, mustShard(t, bs, 2))
	if engine.Parallel(e) {
		t.Fatal("Random policy must fall back to the monolithic replay")
	}
	mono, err := refsim.New(o.Config, o.Replacement)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mono.SimulateStream(bs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("fallback diverged: %+v vs %+v", got, want)
	}
}

// TestShardedReset: Reset zeroes the stitched record, and a replay
// after it reproduces the first.
func TestShardedReset(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := shardTrace(rng, 4000)
	bs, err := tr.BlockStream(4)
	if err != nil {
		t.Fatal(err)
	}
	ss := mustShard(t, bs, 2)
	e := newRef(t, refsim.Options{Config: config(t, 16, 2, 4), Replacement: cache.LRU}, false, 2)
	first, _ := replaySharded(t, e, ss)
	e.Reset()
	if got := e.(engine.RefStatser).RefStats(); got != (refsim.Stats{}) {
		t.Fatalf("stats after Reset: %+v", got)
	}
	second, _ := replaySharded(t, e, ss)
	if first != second {
		t.Errorf("replay after Reset diverged: %+v vs %+v", first, second)
	}
}

// TestSimulatorReset: a simulator replays identically after Reset.
func TestSimulatorReset(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := shardTrace(rng, 4000)
	for _, policy := range []cache.Policy{cache.FIFO, cache.LRU, cache.Random} {
		sim, err := refsim.New(config(t, 32, 4, 8), policy)
		if err != nil {
			t.Fatal(err)
		}
		first, err := sim.Simulate(tr.NewSliceReader())
		if err != nil {
			t.Fatal(err)
		}
		sim.Reset()
		second, err := sim.Simulate(tr.NewSliceReader())
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Errorf("%v: replay after Reset diverged: %+v vs %+v", policy, first, second)
		}
	}
}

// TestShardedStreamMismatch: a partition materialized at another block
// size is rejected, by the sharded pass and by the monolithic fallback.
// (A partition cut at another shard level is not a mismatch: the
// engine rebuilds its pass per level.)
func TestShardedStreamMismatch(t *testing.T) {
	tr := trace.Trace{{Addr: 0}, {Addr: 64}}
	bs, err := tr.BlockStream(4)
	if err != nil {
		t.Fatal(err)
	}
	ss := mustShard(t, bs, 1)
	for _, policy := range []cache.Policy{cache.FIFO, cache.Random} {
		e := newRef(t, refsim.Options{Config: config(t, 8, 1, 8), Replacement: policy}, false, 1)
		if err := e.SimulateSharded(context.Background(), ss); err == nil {
			t.Errorf("%v: want block-size mismatch error", policy)
		}
	}
}

// TestShardedSimEquivalence: the sharded write-policy pass stitches to
// the monolithic per-access results exactly, traffic included, for every
// policy combination — including the Random fallback and kind-mix
// workload traces.
func TestShardedSimEquivalence(t *testing.T) {
	gen := workload.NewKindMix(11, workload.NewTableLookup(3, 0, 512, 8, 0.1, 0.8, trace.DataRead), 5, 4, 1)
	tr := workload.Take(gen, 15_000)
	cfg := config(t, 64, 2, 8)
	for _, policy := range []cache.Policy{cache.FIFO, cache.LRU, cache.Random} {
		for _, log := range []int{0, 2, 3} {
			parent, err := trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), cfg.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			ss := mustShard(t, parent, log)
			for _, combo := range writeCombos {
				label := fmt.Sprintf("%v/log%d/%v/%v", policy, log, combo.write, combo.alloc)
				o := refsim.Options{Config: cfg, Replacement: policy, Write: combo.write, Alloc: combo.alloc}
				wantS, wantT := perAccess(t, o, tr)
				e := newRef(t, o, true, 4)
				gotS, gotT := replaySharded(t, e, ss)
				if engine.Parallel(e) == (policy == cache.Random) {
					t.Fatalf("%s: Parallel() = %v", label, engine.Parallel(e))
				}
				sameRecord(t, label, gotS, wantS, gotT, wantT)

				// Reset and replay must reproduce the pass.
				e.Reset()
				gotS, gotT = replaySharded(t, e, ss)
				sameRecord(t, label+"/reset", gotS, wantS, gotT, wantT)
			}
		}
	}
}

func cancelShardStream(t *testing.T, n int) *trace.ShardStream {
	t.Helper()
	tr := workload.Take(workload.CJPEG.Generator(1), n)
	parent, err := tr.BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}
	return mustShard(t, parent, 2)
}

// TestRunShardedCancelled: a sharded replay on a cancelled context
// returns its error with the worker pool drained.
func TestRunShardedCancelled(t *testing.T) {
	defer leakcheck.Check(t)()
	ss := cancelShardStream(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := newRef(t, refsim.Options{Config: cache.Config{Sets: 64, Assoc: 2, BlockSize: 16}, Replacement: cache.FIFO}, false, 4)
	if err := e.SimulateSharded(ctx, ss); !errors.Is(err, context.Canceled) {
		t.Fatalf("sharded SimulateSharded on cancelled ctx: %v, want context.Canceled", err)
	}
}

// TestSimulateStreamCancelled: the monolithic replay of the same
// partition's parent stream checks the context before it starts, and
// so does the Random fallback.
func TestSimulateStreamCancelled(t *testing.T) {
	defer leakcheck.Check(t)()
	ss := cancelShardStream(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, policy := range []cache.Policy{cache.FIFO, cache.Random} {
		e := newRef(t, refsim.Options{Config: cache.Config{Sets: 64, Assoc: 2, BlockSize: 16}, Replacement: policy}, false, 4)
		if err := engine.Replay(ctx, e, ss.Source, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: stream replay on cancelled ctx: %v, want context.Canceled", policy, err)
		}
		if err := e.SimulateSharded(ctx, ss); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: SimulateSharded on cancelled ctx: %v, want context.Canceled", policy, err)
		}
	}
}

// FuzzKindStreamWrite fuzzes the kind-preserving stream replay and the
// ref engine's sharded replay against the per-access replay across
// every policy combination: the fuzzer chooses the trace (addresses and
// kinds), the geometry, the policies and the shard level, and every
// replay must agree on every statistic and traffic counter.
func FuzzKindStreamWrite(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 200, 7}, uint8(1), uint8(0))
	f.Add([]byte{0, 0, 0, 9, 255, 255}, uint8(6), uint8(3))
	f.Add([]byte{40, 41, 40, 41, 40, 41}, uint8(10), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, geom, pol uint8) {
		sets := 1 << (geom % 5)
		assoc := 1 + int(geom/32)%4
		block := 4 << (pol % 3)
		policy := []cache.Policy{cache.FIFO, cache.LRU, cache.Random}[int(pol/4)%3]
		combo := writeCombos[int(pol/16)%4]

		tr := make(trace.Trace, 0, len(data))
		addr := uint64(0)
		for j, b := range data {
			k := trace.Kind(uint64(b+uint8(j)) % 3)
			if b >= 192 {
				for i := 0; i < int(b-191); i++ {
					tr = append(tr, trace.Access{Addr: addr, Kind: k})
				}
				continue
			}
			addr += uint64(b)
			tr = append(tr, trace.Access{Addr: addr, Kind: k})
		}

		cfg, err := cache.NewConfig(sets, assoc, block)
		if err != nil {
			t.Skip()
		}
		o := refsim.Options{Config: cfg, Replacement: policy, Write: combo.write, Alloc: combo.alloc, StoreBytes: 1 + int(geom%4)}
		wantS, wantT := perAccess(t, o, tr)
		bs, err := trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), cfg.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := refsim.NewSim(o)
		if err != nil {
			t.Fatal(err)
		}
		gotS, err := sim.SimulateStream(bs)
		if err != nil {
			t.Fatal(err)
		}
		sameRecord(t, "fuzz", gotS, wantS, sim.Traffic(), wantT)

		// The sharded pass over the same stream must stitch identically.
		if len(tr) > 0 {
			log := int(geom/8) % 3
			gotS, gotT := replaySharded(t, newRef(t, o, true, 2), mustShard(t, bs, log))
			sameRecord(t, "fuzz sharded", gotS, wantS, gotT, wantT)
		}
	})
}
