package refsim

import (
	"context"
	"math/rand"
	"testing"

	"dew/internal/cache"
	"dew/internal/trace"
)

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

// TestShardedMatchesMonolithic is the exactness claim: for every
// (sets, assoc, policy, shard level) with sets ≥ 2^S under FIFO/LRU,
// the sharded replay's statistics equal the monolithic stream replay
// bit for bit.
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
			cfg, err := cache.NewConfig(1<<logSets, assoc, block)
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range []cache.Policy{cache.FIFO, cache.LRU} {
				want, err := runStream(cfg, policy, bs)
				if err != nil {
					t.Fatal(err)
				}
				for log := 0; log <= 4; log++ {
					ss, err := trace.ShardBlockStream(bs, log)
					if err != nil {
						t.Fatal(err)
					}
					sh, err := NewSharded(cfg, policy, log, 3)
					if err != nil {
						t.Fatal(err)
					}
					if wantPar := log <= logSets; sh.Parallel() != wantPar {
						t.Fatalf("sets=%d log=%d: Parallel()=%v, want %v", cfg.Sets, log, sh.Parallel(), wantPar)
					}
					got, err := sh.SimulateStream(context.Background(), ss)
					if err != nil {
						t.Fatal(err)
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
	ss, err := trace.ShardBlockStream(bs, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustCfg(64, 2, 4)
	sh, err := NewSharded(cfg, cache.Random, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Parallel() {
		t.Fatal("Random policy must fall back to the monolithic replay")
	}
	got, err := sh.SimulateStream(context.Background(), ss)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runStream(cfg, cache.Random, bs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("fallback diverged: %+v vs %+v", got, want)
	}
}

func TestShardedReset(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := shardTrace(rng, 4000)
	bs, err := tr.BlockStream(4)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := trace.ShardBlockStream(bs, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustCfg(16, 2, 4)
	sh, err := NewSharded(cfg, cache.LRU, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sh.SimulateStream(context.Background(), ss)
	if err != nil {
		t.Fatal(err)
	}
	sh.Reset()
	if got := sh.Stats(); got != (Stats{}) {
		t.Fatalf("stats after Reset: %+v", got)
	}
	second, err := sh.SimulateStream(context.Background(), ss)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("replay after Reset diverged: %+v vs %+v", first, second)
	}
}

func TestSimulatorReset(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := shardTrace(rng, 4000)
	for _, policy := range []cache.Policy{cache.FIFO, cache.LRU, cache.Random} {
		sim := mustSim(mustCfg(32, 4, 8), policy)
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

func TestShardedStreamMismatch(t *testing.T) {
	tr := trace.Trace{{Addr: 0}, {Addr: 64}}
	bs, _ := tr.BlockStream(4)
	ss, _ := trace.ShardBlockStream(bs, 1)
	sh, err := NewSharded(mustCfg(8, 1, 4), cache.FIFO, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.SimulateStream(context.Background(), ss); err == nil {
		t.Error("want shard-level mismatch error")
	}
	sh8, err := NewSharded(mustCfg(8, 1, 8), cache.FIFO, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh8.SimulateStream(context.Background(), ss); err == nil {
		t.Error("want block-size mismatch error")
	}
}
