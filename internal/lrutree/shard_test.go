package lrutree_test

import (
	"context"
	"fmt"
	"testing"

	"dew/internal/cache"
	"dew/internal/engine"
	"dew/internal/lrutree"
	"dew/internal/trace"
	"dew/internal/workload"
)

// The set-sharded pass over LRU tree simulators is the lrutree
// engine's (engine.Engine.SimulateSharded); these tests hold its passes
// to the simulator's own per-access walk. The engine's tests cover what
// its internals alone can show: mid-run tree boundaries, the pass's
// shard-level guard and its Reset of the stitched rows.

// shardSpec is the lrutree engine's spec for a pass shape.
func shardSpec(opt lrutree.Options, workers int) engine.Spec {
	return engine.Spec{MinLogSets: opt.MinLogSets, MaxLogSets: opt.MaxLogSets, Assoc: opt.Assoc,
		BlockSize: opt.BlockSize, Policy: cache.LRU, Workers: workers}
}

// newShardEngine builds the lrutree engine for a pass shape.
func newShardEngine(t testing.TB, opt lrutree.Options, workers int) engine.Engine {
	t.Helper()
	e, err := engine.New("lrutree", shardSpec(opt, workers))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func blocks(t testing.TB, tr trace.Trace, block int) *trace.BlockStream {
	t.Helper()
	bs, err := tr.BlockStream(block)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// mustShard partitions a stream at the given shard level.
func mustShard(t testing.TB, bs *trace.BlockStream, log int) *trace.ShardStream {
	t.Helper()
	ss, err := trace.ShardBlockStream(bs, log)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// results converts a simulator's results to the engine's.
func results(in []lrutree.Result) []engine.Result {
	out := make([]engine.Result, len(in))
	for i, r := range in {
		out[i] = engine.Result(r)
	}
	return out
}

// perAccess runs the simulator's per-access walk over tr.
func perAccess(t testing.TB, opt lrutree.Options, tr trace.Trace) []engine.Result {
	t.Helper()
	s, err := lrutree.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tr {
		s.Access(a)
	}
	return results(s.Results())
}

// assertSharded fails unless the sharded results equal want row for
// row.
func assertSharded(t testing.TB, label string, got, want []engine.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: result %d: sharded %+v, monolithic %+v", label, i, got[i], want[i])
		}
	}
}

// TestShardedEquivalence proves the sharded LRU tree pass bit-identical to
// the per-access pass across every shard level of each
// shape — including S=0 (one tree, no shallow pass), S=MaxLogSets
// (every level above the leaf forest replayed shallow), and
// MinLogSets>0 forests where the shard level falls below, inside and
// above the simulated range's start.
func TestShardedEquivalence(t *testing.T) {
	apps := []workload.App{workload.CJPEG, workload.MPEG2Dec, workload.G721Enc}
	shapes := []lrutree.Options{
		{MaxLogSets: 6, Assoc: 4, BlockSize: 16},
		{MaxLogSets: 5, Assoc: 8, BlockSize: 4},
		{MinLogSets: 2, MaxLogSets: 7, Assoc: 2, BlockSize: 32},
		{MinLogSets: 3, MaxLogSets: 6, Assoc: 4, BlockSize: 64},
		{MaxLogSets: 5, Assoc: 1, BlockSize: 8},
		{MinLogSets: 1, MaxLogSets: 5, Assoc: 8, BlockSize: 32},
		{MinLogSets: 2, MaxLogSets: 6, Assoc: 2, BlockSize: 8},
		{MaxLogSets: 5, Assoc: 1, BlockSize: 4},
	}
	for _, app := range apps {
		tr := workload.Take(app.Generator(7), 30_000)
		for _, opt := range shapes {
			bs := blocks(t, tr, opt.BlockSize)
			want := perAccess(t, opt, tr)
			for log := 0; log <= opt.MaxLogSets; log++ {
				label := fmt.Sprintf("%s/min%d/max%d/A%d/B%d/S%d",
					app.Name, opt.MinLogSets, opt.MaxLogSets, opt.Assoc, opt.BlockSize, log)
				e := newShardEngine(t, opt, 4)
				if err := e.SimulateSharded(context.Background(), mustShard(t, bs, log)); err != nil {
					t.Fatal(err)
				}
				got := e.Results()
				assertSharded(t, label, got, want)
				for _, r := range got {
					if r.Accesses != uint64(len(tr)) {
						t.Fatalf("%s: %+v counts %d accesses, want %d", label, r, r.Accesses, len(tr))
					}
				}
			}
		}
	}
}

// TestShardedReset reuses one sharded pass across repeated replays:
// Reset must clear the results, and every replay must reproduce the
// first's exactly.
func TestShardedReset(t *testing.T) {
	tr := workload.Take(workload.MPEG2Dec.Generator(4), 12_000)
	opt := lrutree.Options{MaxLogSets: 6, Assoc: 4, BlockSize: 16}
	ss := mustShard(t, blocks(t, tr, opt.BlockSize), 2)
	e := newShardEngine(t, opt, 2)
	if err := e.SimulateSharded(context.Background(), ss); err != nil {
		t.Fatal(err)
	}
	want := e.Results()
	for i := 0; i < 3; i++ {
		e.Reset()
		if e.Results() != nil {
			t.Fatal("Results survive Reset")
		}
		if err := e.SimulateSharded(context.Background(), ss); err != nil {
			t.Fatal(err)
		}
		for j, r := range e.Results() {
			if r != want[j] {
				t.Fatalf("replay %d: result %d = %+v, want %+v", i, j, r, want[j])
			}
		}
	}
}

// TestShardedRepeatedReplay replays the same shard stream twice on one
// pass without Reset — a chunked replay, which the monolithic entry
// points also support — and demands agreement with the monolithic
// simulator fed the stream twice.
func TestShardedRepeatedReplay(t *testing.T) {
	tr := workload.Take(workload.CJPEG.Generator(8), 10_000)
	for _, opt := range []lrutree.Options{
		{MaxLogSets: 6, Assoc: 4, BlockSize: 16},
		{MinLogSets: 4, MaxLogSets: 6, Assoc: 4, BlockSize: 16}, // S ≤ MinLogSets: no shallow pass
		{MaxLogSets: 5, Assoc: 2, BlockSize: 8},
	} {
		bs := blocks(t, tr, opt.BlockSize)
		ss := mustShard(t, bs, 2)
		mono, err := lrutree.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		sharded := newShardEngine(t, opt, 2)
		for round := 0; round < 2; round++ {
			if err := mono.SimulateStream(bs); err != nil {
				t.Fatal(err)
			}
			if err := sharded.SimulateSharded(context.Background(), ss); err != nil {
				t.Fatal(err)
			}
			assertSharded(t, fmt.Sprintf("min%d/round%d", opt.MinLogSets, round), sharded.Results(), results(mono.Results()))
		}
	}
}

// TestShardedRejects covers the sharded replay's guards: shard levels
// outside [0, MaxLogSets], and a partition cut at another block size
// than the pass's.
func TestShardedRejects(t *testing.T) {
	tr := workload.Take(workload.CJPEG.Generator(1), 500)
	opt := lrutree.Options{MaxLogSets: 4, Assoc: 2, BlockSize: 16}
	bs := blocks(t, tr, 16)
	if err := newShardEngine(t, opt, 0).SimulateSharded(context.Background(), mustShard(t, bs, 5)); err == nil {
		t.Error("shard level above MaxLogSets accepted")
	}
	negative := &trace.ShardStream{BlockSize: 16, Log: -1, Source: bs}
	if err := newShardEngine(t, opt, 0).SimulateSharded(context.Background(), negative); err == nil {
		t.Error("negative shard level accepted")
	}
	e := newShardEngine(t, opt, 0)
	if err := e.SimulateSharded(context.Background(), mustShard(t, bs, 2)); err != nil {
		t.Fatal(err)
	}
	if err := e.SimulateSharded(context.Background(), mustShard(t, blocks(t, tr, 4), 2)); err == nil {
		t.Error("block-size mismatch accepted")
	}
}
