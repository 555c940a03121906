package engine

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dew/internal/cache"
	"dew/internal/core"
	"dew/internal/lrutree"
	"dew/internal/refsim"
	"dew/internal/trace"
)

func engineTrace(n int) trace.Trace {
	rng := rand.New(rand.NewSource(13))
	tr := make(trace.Trace, 0, n)
	addr := uint64(0)
	for len(tr) < n {
		switch rng.Intn(4) {
		case 0:
			run := rng.Intn(50) + 1
			for i := 0; i < run && len(tr) < n; i++ {
				tr = append(tr, trace.Access{Addr: addr, Kind: trace.IFetch})
				addr += 4
			}
		case 1:
			addr = uint64(rng.Intn(1 << 13))
			tr = append(tr, trace.Access{Addr: addr})
		default:
			addr += uint64(rng.Intn(80))
			tr = append(tr, trace.Access{Addr: addr})
		}
	}
	return tr
}

// accesses is the request count e's results carry: 0 before any
// replay, and an error unless every result agrees.
func accesses(t testing.TB, e Engine) uint64 {
	t.Helper()
	rs := e.Results()
	if len(rs) == 0 {
		return 0
	}
	for _, r := range rs[1:] {
		if r.Accesses != rs[0].Accesses {
			t.Fatalf("results disagree on accesses: %+v vs %+v", r, rs[0])
		}
	}
	return rs[0].Accesses
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := map[string]bool{"dew": true, "lrutree": true, "ref": true}
	for _, n := range names {
		delete(want, n)
	}
	for n := range want {
		t.Errorf("built-in engine %q not registered", n)
	}
	if _, err := New("nope", Spec{}); err == nil {
		t.Error("want error for unknown engine")
	}
}

// TestLRUAndFIFODiffer pins how the dew engine resolves policies: FIFO
// and LRU passes differ on a thrashing trace, an LRU pass is the
// lrutree pass bit for bit (monolithic and 2-shard replays).
func TestLRUAndFIFODiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	tr := make(trace.Trace, 20000)
	for i := range tr {
		tr[i] = trace.Access{Addr: uint64(rng.Intn(256))}
	}
	bs, err := tr.BlockStream(1)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := trace.ShardBlockStream(bs, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(pol cache.Policy) Spec {
		return Spec{MaxLogSets: 3, Assoc: 4, BlockSize: 1, Policy: pol, Workers: 2}
	}
	run := func(name string, pol cache.Policy, ss *trace.ShardStream) []Result {
		t.Helper()
		e, err := Run(context.Background(), name, spec(pol), bs, ss)
		if err != nil {
			t.Fatal(err)
		}
		return e.Results()
	}

	fifo, lru := run("dew", cache.FIFO, nil), run("dew", cache.LRU, nil)
	if fifo[len(fifo)-1] == lru[len(lru)-1] {
		t.Errorf("FIFO and LRU missed identically (%+v) on a thrashing trace; suspicious", fifo[len(fifo)-1])
	}
	for _, replay := range []*trace.ShardStream{nil, ss} {
		got, want := run("dew", cache.LRU, replay), run("lrutree", cache.LRU, replay)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sharded=%v: dew LRU %+v, lrutree %+v", replay != nil, got, want)
		}
	}
}

// TestPolicyValidation checks the dew engine rejects any policy other
// than FIFO and LRU when it is built.
func TestPolicyValidation(t *testing.T) {
	spec := Spec{MaxLogSets: 2, Assoc: 2, BlockSize: 4, Policy: cache.Random}
	if _, err := New("dew", spec); err == nil ||
		!strings.Contains(err.Error(), "unsupported replacement policy Random") {
		t.Errorf("dew Random: err %v, want the unsupported-policy error", err)
	}
}

// TestEnginesMatchDirectSimulators checks each adapter is a faithful
// veneer: stream and sharded replays through the Engine interface
// reproduce the direct simulator APIs bit for bit, and the two replay
// modes agree with each other.
func TestEnginesMatchDirectSimulators(t *testing.T) {
	tr := engineTrace(25000)
	const block, maxLog = 8, 6
	bs, err := tr.BlockStream(block)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := trace.ShardBlockStream(bs, 2)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("dew", func(t *testing.T) {
		// FIFO runs on the DEW core; LRU resolves to the LRU tree.
		fifo := core.MustNew(core.Options{MaxLogSets: maxLog, Assoc: 4, BlockSize: block})
		if err := fifo.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		lru, err := lrutree.New(lrutree.Options{MaxLogSets: maxLog, Assoc: 4, BlockSize: block})
		if err != nil {
			t.Fatal(err)
		}
		if err := lru.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		direct := map[cache.Policy][]Result{
			cache.FIFO: results(fifo.Results()),
			cache.LRU:  results(lru.Results()),
		}
		for _, pol := range []cache.Policy{cache.FIFO, cache.LRU} {
			spec := Spec{MaxLogSets: maxLog, Assoc: 4, BlockSize: block, Policy: pol, Workers: 2}
			want := direct[pol]

			for _, sharded := range []bool{false, true} {
				e, err := New("dew", spec)
				if err != nil {
					t.Fatal(err)
				}
				var replay *trace.ShardStream
				if sharded {
					replay = ss
				}
				if err := Replay(context.Background(), e, bs, replay); err != nil {
					t.Fatal(err)
				}
				got := e.Results()
				if len(got) != len(want) {
					t.Fatalf("%v sharded=%v: %d results, want %d", pol, sharded, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%v sharded=%v: result %d = %+v, want %+v", pol, sharded, i, got[i], want[i])
					}
				}
				if n := accesses(t, e); n != uint64(len(tr)) {
					t.Errorf("%v sharded=%v: accesses %d, want %d", pol, sharded, n, len(tr))
				}
				e.Reset()
				if e.Results() != nil {
					t.Errorf("%v sharded=%v: state survives Reset", pol, sharded)
				}
				if err := Replay(context.Background(), e, bs, replay); err != nil {
					t.Fatal(err)
				}
				if got2 := e.Results(); got2[0] != want[0] || got2[len(got2)-1] != want[len(want)-1] {
					t.Errorf("%v sharded=%v: replay after Reset diverged", pol, sharded)
				}
			}
		}
	})

	t.Run("lrutree", func(t *testing.T) {
		if _, err := New("lrutree", Spec{MaxLogSets: 4, Assoc: 2, BlockSize: block, Policy: cache.FIFO}); err == nil {
			t.Fatal("lrutree must reject FIFO")
		}
		spec := Spec{MaxLogSets: maxLog, Assoc: 4, BlockSize: block, Policy: cache.LRU, Workers: 2}
		direct, err := lrutree.New(lrutree.Options{MaxLogSets: maxLog, Assoc: 4, BlockSize: block})
		if err != nil {
			t.Fatal(err)
		}
		if err := direct.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		want := results(direct.Results())
		for _, sharded := range []bool{false, true} {
			var replay *trace.ShardStream
			if sharded {
				replay = ss
			}
			e, err := Run(context.Background(), "lrutree", spec, bs, replay)
			if err != nil {
				t.Fatal(err)
			}
			got := e.Results()
			if len(got) != len(want) {
				t.Fatalf("sharded=%v: %d results, want %d", sharded, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("sharded=%v: result %d = %+v, want %+v", sharded, i, got[i], want[i])
				}
			}
		}
	})

	t.Run("ref", func(t *testing.T) {
		if _, err := New("ref", Spec{MinLogSets: 1, MaxLogSets: 3, Assoc: 2, BlockSize: block}); err == nil {
			t.Fatal("ref must reject multi-configuration specs")
		}
		for _, logSets := range []int{0, 2, 4} {
			spec := Spec{MinLogSets: logSets, MaxLogSets: logSets, Assoc: 2, BlockSize: block,
				Policy: cache.FIFO, Workers: 2}
			cfg := mustCfg(1<<logSets, 2, block)
			ref, err := refsim.New(cfg, cache.FIFO)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.SimulateStream(bs)
			if err != nil {
				t.Fatal(err)
			}
			for _, sharded := range []bool{false, true} {
				var replay *trace.ShardStream
				if sharded {
					replay = ss
				}
				e, err := Run(context.Background(), "ref", spec, bs, replay)
				if err != nil {
					t.Fatal(err)
				}
				rs, ok := e.(RefStatser)
				if !ok {
					t.Fatal("ref engine must implement RefStatser")
				}
				if got := rs.RefStats(); got != want {
					t.Errorf("sets=%d sharded=%v: stats %+v, want %+v", 1<<logSets, sharded, got, want)
				}
				res := e.Results()
				if len(res) != 1 || res[0].Config != cfg || res[0].Stats != want.Stats {
					t.Errorf("sets=%d sharded=%v: results %+v", 1<<logSets, sharded, res)
				}
				if par := Parallel(e); par != (sharded && logSets >= ss.Log) {
					t.Errorf("sets=%d sharded=%v: Parallel()=%v", 1<<logSets, sharded, par)
				}
			}
		}
	})
}

// TestRefEngineShardLevelSwitch pins the Engine contract that
// Reset-then-replay at a different shard level works on every engine
// (the backend must rebuild for the new level).
func TestRefEngineShardLevelSwitch(t *testing.T) {
	tr := engineTrace(8000)
	bs, err := tr.BlockStream(8)
	if err != nil {
		t.Fatal(err)
	}
	ss2, err := trace.ShardBlockStream(bs, 2)
	if err != nil {
		t.Fatal(err)
	}
	ss3, err := trace.ShardBlockStream(bs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		spec := Spec{MinLogSets: 4, MaxLogSets: 4, Assoc: 2, BlockSize: 8, Policy: cache.LRU, Workers: 2}
		if name != "ref" {
			spec.MinLogSets = 0
		}
		e, err := New(name, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SimulateSharded(context.Background(), ss2); err != nil {
			t.Fatalf("%s at level 2: %v", name, err)
		}
		first := e.Results()
		e.Reset()
		if err := e.SimulateSharded(context.Background(), ss3); err != nil {
			t.Fatalf("%s at level 3 after Reset: %v", name, err)
		}
		second := e.Results()
		if len(first) != len(second) || first[0] != second[0] {
			t.Errorf("%s: results differ across shard levels: %+v vs %+v", name, first[0], second[0])
		}
	}
}

// engineKindTrace is engineTrace with a deterministic kind mix so the
// write-policy engine paths see stores.
func engineKindTrace(n int) trace.Trace {
	tr := engineTrace(n)
	for i := range tr {
		if tr[i].Kind == trace.IFetch {
			continue
		}
		tr[i].Kind = trace.Kind(uint64(tr[i].Addr+uint64(i)) % 2) // reads and writes
	}
	return tr
}

// TestRefEngineWriteSim drives the ref engine in write-policy mode over
// a kind-preserving stream, monolithically and sharded, and checks both
// against the per-access fully-parameterized simulator — statistics and
// traffic.
func TestRefEngineWriteSim(t *testing.T) {
	tr := engineKindTrace(20000)
	const block = 8
	spec := Spec{
		MinLogSets: 4, MaxLogSets: 4, Assoc: 2, BlockSize: block, Policy: cache.LRU,
		WriteSim: true, Write: refsim.WriteThrough, Alloc: refsim.NoWriteAllocate, StoreBytes: 2,
	}
	cfg := mustCfg(16, 2, block)
	ref, err := refsim.NewSim(refsim.Options{
		Config: cfg, Replacement: cache.LRU,
		Write: refsim.WriteThrough, Alloc: refsim.NoWriteAllocate, StoreBytes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantS, err := ref.Simulate(tr.NewSliceReader())
	if err != nil {
		t.Fatal(err)
	}
	wantT := ref.Traffic()

	bs, err := trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), block)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New("ref", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SimulateStream(bs); err != nil {
		t.Fatal(err)
	}
	gotS := e.(RefStatser).RefStats()
	gotT := e.(TrafficStatser).RefTraffic()
	if gotS != wantS {
		t.Errorf("stream stats = %+v, want %+v", gotS, wantS)
	}
	if gotT != wantT {
		t.Errorf("stream traffic = %+v, want %+v", gotT, wantT)
	}

	parent, err := trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), block)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := trace.ShardBlockStream(parent, 2)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New("ref", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.SimulateSharded(context.Background(), ss); err != nil {
		t.Fatal(err)
	}
	if !Parallel(e2) {
		t.Error("sharded write-sim replay did not decompose")
	}
	if gotS := e2.(RefStatser).RefStats(); gotS != wantS {
		t.Errorf("sharded stats = %+v, want %+v", gotS, wantS)
	}
	if gotT := e2.(TrafficStatser).RefTraffic(); gotT != wantT {
		t.Errorf("sharded traffic = %+v, want %+v", gotT, wantT)
	}

	// A write-sim engine must refuse a kind-free stream.
	plain, err := tr.BlockStream(block)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := New("ref", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := e3.SimulateStream(plain); err == nil {
		t.Error("write-sim engine accepted a kind-free stream")
	}
}

// TestWriteSimRejections: the multi-configuration engines cannot model
// write policies and must say so at build time.
func TestWriteSimRejections(t *testing.T) {
	spec := Spec{MinLogSets: 2, MaxLogSets: 4, Assoc: 2, BlockSize: 8, Policy: cache.LRU, WriteSim: true}
	if _, err := New("dew", spec); err == nil {
		t.Error("dew accepted WriteSim")
	}
	if _, err := New("lrutree", spec); err == nil {
		t.Error("lrutree accepted WriteSim")
	}
	bad := Spec{MinLogSets: 2, MaxLogSets: 2, Assoc: 2, BlockSize: 8, Policy: cache.LRU, WriteSim: true, StoreBytes: -1}
	if _, err := New("ref", bad); err == nil {
		t.Error("ref accepted a negative store width")
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
