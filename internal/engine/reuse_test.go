package engine

import (
	"context"
	"fmt"
	"math/rand"
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
// one cannot take the spec — a wider associativity, another set range
// or policy, write-policy simulation, an invalid block size, or a
// configuration beyond the reference engine's arenas — and leaves the
// offered engine untouched.
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
	if b := dew.(*dewEngine).spec.BlockSize; b != 8 {
		t.Errorf("rejected rebinds moved the engine to block size %d", b)
	}
	tree, err := New("lrutree", Spec{MaxLogSets: 5, Assoc: 2, BlockSize: 8, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	if tree.(Rebinder).Rebind(Spec{MaxLogSets: 5, Assoc: 2, BlockSize: 16}) {
		t.Error("lrutree rebound to a FIFO spec")
	}
	// The reference engine is a Rebinder whose arenas are capacity: once
	// it has replayed, a configuration with as many or fewer ways and
	// sets is rebound, a larger one, another write-policy mode or a
	// policy needing arenas it lacks gets a fresh engine.
	refSpec := Spec{MinLogSets: 3, MaxLogSets: 3, Assoc: 2, BlockSize: 8}
	ref, err := New("ref", refSpec)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := engineTrace(2000).BlockStream(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SimulateStream(bs); err != nil {
		t.Fatal(err)
	}
	for _, fits := range []Spec{
		{MinLogSets: 3, MaxLogSets: 3, Assoc: 2, BlockSize: 16},
		{MinLogSets: 2, MaxLogSets: 2, Assoc: 4, BlockSize: 64},
		{MinLogSets: 0, MaxLogSets: 0, Assoc: 1, BlockSize: 4, Policy: cache.Random},
	} {
		got, err := Reuse(ref, "ref", fits)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Errorf("spec %+v: a fitting ref engine was rebuilt, not rebound", fits)
		}
	}
	for _, mut := range []func(*Spec){
		func(s *Spec) { s.MinLogSets, s.MaxLogSets = 4, 4 },
		func(s *Spec) { s.Assoc = 4 },
		func(s *Spec) { s.Policy = cache.LRU },
		func(s *Spec) { s.WriteSim = true },
	} {
		spec := refSpec
		mut(&spec)
		got, err := Reuse(ref, "ref", spec)
		if err != nil {
			t.Fatal(err)
		}
		if got == ref {
			t.Errorf("spec %+v: ref engine rebound beyond its arenas", spec)
		}
	}
	if ref.(Rebinder).Rebind(Spec{MinLogSets: 1, MaxLogSets: 2, Assoc: 1, BlockSize: 8}) {
		t.Error("ref rebound to a multi-configuration spec")
	}
	if got, err := Reuse(nil, "dew", base); err != nil || got == nil {
		t.Errorf("Reuse(nil) = %v, %v; want a fresh engine", got, err)
	}
}

// TestRecycledEnginesMatchFresh is the differential test of recycled
// arenas: one dew engine and one ref engine (plus a write-back ref
// engine over a kind-preserving stream, whose dirty bits must not
// outlive a pass) are driven through a shuffled sequence of specs —
// associativity 16, then 1, 4 and 8, set counts 2^0..2^maxLog for ref,
// block sizes 4, 16 and 64 — each pass rebinding the engine the
// previous pass left. Before every rebind the arenas are poisoned with
// the tags the next pass requests: the engine first replays the next
// pass's own stream under a poison spec of associativity 16/A (for
// 4-way passes the next pass's own geometry, which leaves each tag
// exactly where the next pass looks), with the same block size — so the
// same block IDs — and, for ref, the same set count — so the same tags.
// Every pass must equal a fresh engine on Results and on every RefStats
// (and RefTraffic) field.
func TestRecycledEnginesMatchFresh(t *testing.T) {
	const maxLog = 9
	tr := engineTrace(30000)
	for i := range tr {
		if i%3 == 1 {
			tr[i].Kind = trace.DataWrite
		}
	}
	rng := rand.New(rand.NewSource(24))
	streams, kindStreams := map[int]*trace.BlockStream{}, map[int]*trace.BlockStream{}
	for _, b := range []int{4, 16, 64} {
		var err error
		if streams[b], err = tr.BlockStream(b); err != nil {
			t.Fatal(err)
		}
		if kindStreams[b], err = trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), b); err != nil {
			t.Fatal(err)
		}
	}
	var dewSpecs, refSpecs []Spec
	for _, a := range []int{16, 1, 4, 8} {
		for _, b := range []int{4, 16, 64} {
			dewSpecs = append(dewSpecs, Spec{MaxLogSets: maxLog, Assoc: a, BlockSize: b})
			for log := 0; log <= maxLog; log += 3 {
				refSpecs = append(refSpecs, Spec{MinLogSets: log, MaxLogSets: log, Assoc: a, BlockSize: b})
			}
		}
	}
	// Shuffle within each associativity group, keeping the 16→1→4→8
	// order; the first pass of all is the widest, so every later pass
	// fits the arenas it leaves.
	for _, specs := range [][]Spec{dewSpecs, refSpecs} {
		group := len(specs) / 4
		for g := 0; g < 4; g++ {
			part := specs[g*group : (g+1)*group]
			rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
		}
	}
	refSpecs[0] = Spec{MinLogSets: maxLog, MaxLogSets: maxLog, Assoc: 16, BlockSize: 4}
	writeSpecs := make([]Spec, len(refSpecs))
	for i, spec := range refSpecs {
		spec.WriteSim = true
		writeSpecs[i] = spec
	}

	for _, fam := range []struct {
		name, engine string
		specs        []Spec
		streams      map[int]*trace.BlockStream
	}{
		{"dew", "dew", dewSpecs, streams},
		{"ref", "ref", refSpecs, streams},
		{"ref write-back", "ref", writeSpecs, kindStreams},
	} {
		var e Engine
		for step, spec := range fam.specs {
			label := fmt.Sprintf("%s step %d sets 2^%d..2^%d A=%d B=%d", fam.name, step,
				spec.MinLogSets, spec.MaxLogSets, spec.Assoc, spec.BlockSize)
			bs := fam.streams[spec.BlockSize]
			if e != nil {
				poison := spec
				poison.Assoc = 16 / spec.Assoc
				if got, err := Reuse(e, fam.engine, poison); err != nil || got != e {
					t.Fatalf("%s: the poison spec did not fit the recycled arenas (%v)", label, err)
				}
				if err := e.SimulateStream(bs); err != nil {
					t.Fatal(err)
				}
			}
			got, err := Reuse(e, fam.engine, spec)
			if err != nil {
				t.Fatal(err)
			}
			if e != nil && got != e {
				t.Fatalf("%s: a fitting engine was rebuilt, not rebound", label)
			}
			e = got
			want, err := New(fam.engine, spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []Engine{got, want} {
				if err := x.SimulateStream(bs); err != nil {
					t.Fatal(err)
				}
			}
			sameEngineState(t, label, got, want)
		}
	}
}
