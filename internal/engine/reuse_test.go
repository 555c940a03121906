package engine

import (
	"context"
	"fmt"
	"testing"

	"dew/internal/cache"
	"dew/internal/trace"
)

// TestReuseMatchesFresh drives a free list of engines the way explore
// does — one slot per associativity, every pass rebinding the slot's
// engine to its block size — through an interleaved (block, assoc)
// order, and compares every pass against a freshly built engine. The
// passes alternate monolithic and sharded replays, so an engine is
// rebound after either one; the set range starts above 0 (a forest).
func TestReuseMatchesFresh(t *testing.T) {
	tr := engineTrace(20000)
	order := []struct{ block, assoc int }{
		{8, 2}, {4, 2}, {8, 4}, {32, 2}, {4, 4}, {16, 4}, {16, 2}, {64, 4},
	}
	for _, fam := range []struct {
		name   string
		policy cache.Policy
	}{{"dew", cache.FIFO}, {"dew", cache.LRU}, {"lrutree", cache.LRU}} {
		free := map[int]Engine{}
		for step, o := range order {
			spec := Spec{MinLogSets: 1, MaxLogSets: 6, Assoc: o.assoc, BlockSize: o.block, Policy: fam.policy, Workers: 2}
			label := fmt.Sprintf("%s/%v step %d B=%d A=%d", fam.name, fam.policy, step, o.block, o.assoc)
			prev := free[o.assoc]
			got, err := Reuse(prev, fam.name, spec)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && got != prev {
				t.Fatalf("%s: a compatible engine was rebuilt, not rebound", label)
			}
			want, err := New(fam.name, spec)
			if err != nil {
				t.Fatal(err)
			}
			bs, err := tr.BlockStream(o.block)
			if err != nil {
				t.Fatal(err)
			}
			var ss *trace.ShardStream
			if step%2 == 1 {
				if ss, err = trace.ShardBlockStream(bs, 2); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range []Engine{got, want} {
				if err := Replay(context.Background(), e, bs, ss); err != nil {
					t.Fatal(err)
				}
			}
			sameEngineState(t, label, got, want)
			if r := got.Results(); r[len(r)-1].Config.BlockSize != o.block {
				t.Fatalf("%s: results report block size %d", label, r[len(r)-1].Config.BlockSize)
			}
			free[o.assoc] = got
		}
	}
}

// TestReuseFallsBackToNew: Reuse builds a fresh engine when the offered
// one cannot take the spec — another associativity, set range or
// policy, write-policy simulation, an invalid block size, or an engine
// without the Rebinder capability — and leaves the offered engine
// untouched.
func TestReuseFallsBackToNew(t *testing.T) {
	base := Spec{MaxLogSets: 5, Assoc: 2, BlockSize: 8}
	dew, err := New("dew", base)
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*Spec){
		func(s *Spec) { s.Assoc = 4 },
		func(s *Spec) { s.MinLogSets = 1 },
		func(s *Spec) { s.MaxLogSets = 6 },
		func(s *Spec) { s.Policy = cache.LRU },
	} {
		spec := base
		spec.BlockSize = 16
		mut(&spec)
		got, err := Reuse(dew, "dew", spec)
		if err != nil {
			t.Fatal(err)
		}
		if got == dew {
			t.Errorf("spec %+v: incompatible engine was rebound", spec)
		}
	}
	if dew.(Rebinder).Rebind(Spec{MaxLogSets: 5, Assoc: 2, BlockSize: 3}) {
		t.Error("dew rebound to block size 3")
	}
	ws := base
	ws.WriteSim = true
	if dew.(Rebinder).Rebind(ws) {
		t.Error("dew rebound to a write-policy spec")
	}
	if b := dew.(*dewEngine).opt.BlockSize; b != 8 {
		t.Errorf("rejected rebinds moved the engine to block size %d", b)
	}
	tree, err := New("lrutree", Spec{MaxLogSets: 5, Assoc: 2, BlockSize: 8, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	if tree.(Rebinder).Rebind(Spec{MaxLogSets: 5, Assoc: 2, BlockSize: 16}) {
		t.Error("lrutree rebound to a FIFO spec")
	}
	ref, err := New("ref", Spec{MinLogSets: 3, MaxLogSets: 3, Assoc: 2, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ref.(Rebinder); ok {
		t.Error("ref claims the Rebinder capability")
	}
	got, err := Reuse(ref, "ref", Spec{MinLogSets: 3, MaxLogSets: 3, Assoc: 2, BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got == ref {
		t.Error("ref engine was reused")
	}
	if got, err := Reuse(nil, "dew", base); err != nil || got == nil {
		t.Errorf("Reuse(nil) = %v, %v; want a fresh engine", got, err)
	}
}
