package engine

import (
	"context"
	"fmt"
	"testing"

	"dew/internal/cache"
	"dew/internal/core"
	"dew/internal/lrutree"
	"dew/internal/refsim"
	"dew/internal/trace"
	"dew/internal/workload"
)

// shardCase is one engine mode the sharded pass serves, with the
// per-access oracle its outcome must equal: the simulator's own walk,
// fed one access at a time.
type shardCase struct {
	name   string
	engine string
	policy cache.Policy
	// writeSim, write and alloc select the reference engine's
	// write-policy mode.
	writeSim bool
	write    refsim.WritePolicy
	alloc    refsim.AllocPolicy
	oracle   func(t testing.TB, spec Spec, tr trace.Trace) outcome
}

// outcome is what an engine reports after a replay: its Results and,
// for the reference engine, the full record behind them.
type outcome struct {
	results []Result
	stats   refsim.Stats
	traffic refsim.Traffic
}

func outcomeOf(e Engine) outcome {
	o := outcome{results: e.Results()}
	if r, ok := e.(RefStatser); ok {
		o.stats = r.RefStats()
	}
	if r, ok := e.(TrafficStatser); ok {
		o.traffic = r.RefTraffic()
	}
	return o
}

// refOracle replays tr one access at a time through the reference
// simulator of spec. A kind-free stream carries no request kinds, so a
// kind-free pass keeps no per-kind counts.
func refOracle(t testing.TB, spec Spec, tr trace.Trace) outcome {
	t.Helper()
	cfg, err := refConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := refsim.New(cfg, spec.Policy)
	if spec.WriteSim {
		s, err = refsim.NewSim(refOptions(spec, cfg))
	}
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Simulate(tr.NewSliceReader())
	if err != nil {
		t.Fatal(err)
	}
	if !spec.WriteSim {
		st.AccessesByKind, st.MissesByKind = [3]uint64{}, [3]uint64{}
	}
	return outcome{results: []Result{{Config: cfg, Stats: st.Stats}}, stats: st, traffic: s.Traffic()}
}

var shardCases = []shardCase{
	{name: "dew-FIFO", engine: "dew", policy: cache.FIFO, oracle: func(t testing.TB, spec Spec, tr trace.Trace) outcome {
		s, err := core.New(coreOptions(spec))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range tr {
			s.Access(a)
		}
		return outcome{results: results(s.Results())}
	}},
	{name: "lrutree-LRU", engine: "lrutree", policy: cache.LRU, oracle: func(t testing.TB, spec Spec, tr trace.Trace) outcome {
		s, err := lrutree.New(treeOptions(spec))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range tr {
			s.Access(a)
		}
		return outcome{results: results(s.Results())}
	}},
	{name: "ref-LRU", engine: "ref", policy: cache.LRU, oracle: refOracle},
	{name: "ref-FIFO-wt-nwa", engine: "ref", policy: cache.FIFO, writeSim: true,
		write: refsim.WriteThrough, alloc: refsim.NoWriteAllocate, oracle: refOracle},
	{name: "ref-LRU-wb-wa", engine: "ref", policy: cache.LRU, writeSim: true,
		write: refsim.WriteBack, alloc: refsim.WriteAllocate, oracle: refOracle},
}

// shape is a pass shape the sharded tests cover under every policy;
// the reference engine simulates its largest configuration.
type shape struct{ minLog, maxLog, assoc, block int }

func (c shardCase) spec(sh shape, workers int) Spec {
	spec := Spec{MinLogSets: sh.minLog, MaxLogSets: sh.maxLog, Assoc: sh.assoc, BlockSize: sh.block,
		Policy: c.policy, Workers: workers, WriteSim: c.writeSim, Write: c.write, Alloc: c.alloc}
	if c.engine == "ref" {
		spec.MinLogSets = sh.maxLog
	}
	return spec
}

func (c shardCase) newEngine(t testing.TB, spec Spec) Engine {
	t.Helper()
	e, err := New(c.engine, spec)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// blocks materializes tr at block size block, with the kind channel
// in write-policy mode.
func (c shardCase) blocks(t testing.TB, tr trace.Trace, block int) *trace.BlockStream {
	t.Helper()
	if !c.writeSim {
		return mustBlocks(t, tr, block)
	}
	bs, err := trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), block)
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

func mustBlocks(t testing.TB, tr trace.Trace, block int) *trace.BlockStream {
	t.Helper()
	bs, err := tr.BlockStream(block)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// sameResults fails unless got equals want row for row.
func sameResults(t testing.TB, label string, got, want []Result) {
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

// sameOutcome fails unless got equals want on every field.
func sameOutcome(t testing.TB, label string, got, want outcome) {
	t.Helper()
	sameResults(t, label, got.results, want.results)
	if got.stats != want.stats || got.traffic != want.traffic {
		t.Errorf("%s: sharded record %+v %+v, want %+v %+v", label, got.stats, got.traffic, want.stats, want.traffic)
	}
}

// pass is what the tests read of a sharded pass, whatever its record
// type.
type pass interface {
	SimulateStream(ctx context.Context, ss *trace.ShardStream) error
	// stitched returns the stitched records.
	stitched() []any
	// treeRecords returns each tree's own records, in tree-local
	// terms.
	treeRecords() [][]any
}

// passOf is the sharded pass behind an engine that has replayed
// sharded.
func passOf(e Engine) pass {
	switch e := e.(type) {
	case *dewEngine:
		return e.sharded
	case *lruEngine:
		return e.sharded
	case *refEngine:
		return e.sharded
	}
	panic(fmt.Sprintf("%T is not a built-in engine", e))
}

func anys[R any](in []R) []any {
	out := make([]any, len(in))
	for i, r := range in {
		out[i] = r
	}
	return out
}

func (p *shardedPass[R]) stitched() []any { return anys(p.Results()) }

func (p *shardedPass[R]) treeRecords() [][]any {
	out := make([][]any, len(p.trees))
	for t, tree := range p.trees {
		out[t] = anys(tree.Results())
	}
	return out
}

// zeroed reports whether a stitched record counts nothing.
func zeroed(r any) bool {
	switch r := r.(type) {
	case Result:
		return r.Stats == cache.Stats{}
	case refRecord:
		return r.Stats == refsim.Stats{} && r.Traffic == refsim.Traffic{}
	}
	panic(fmt.Sprintf("unknown record %T", r))
}

// splitRuns returns the stream with every run of weight w > 1 cut into
// runs of w/2 and w-w/2 of the same block, so each second half starts
// mid-run; a kind record is cut in its canonical order (splitKinds).
func splitRuns(bs *trace.BlockStream) trace.BlockStream {
	out := trace.BlockStream{BlockSize: bs.BlockSize, Accesses: bs.Accesses}
	if bs.HasKinds() {
		out.Kinds = []trace.KindRun{}
	}
	for i, id := range bs.IDs {
		w := bs.Runs[i]
		if w <= 1 {
			out.IDs = append(out.IDs, id)
			out.Runs = append(out.Runs, w)
			if bs.HasKinds() {
				out.Kinds = append(out.Kinds, bs.Kinds[i])
			}
			continue
		}
		out.IDs = append(out.IDs, id, id)
		out.Runs = append(out.Runs, w/2, w-w/2)
		if bs.HasKinds() {
			front, back := splitKinds(bs.Kinds[i], w/2)
			out.Kinds = append(out.Kinds, front, back)
		}
	}
	return out
}

// splitKinds cuts a kind record after the first n accesses of its
// canonical order: the Lead stores, the First non-store, then the
// remaining loads, stores and fetches.
func splitKinds(kr trace.KindRun, n uint32) (front, back trace.KindRun) {
	add := func(dst *trace.KindRun, k trace.Kind, m uint32) {
		if m == 0 {
			return
		}
		if dst.AllWrites() {
			if k == trace.DataWrite {
				dst.Lead += m
			} else {
				dst.First = k
			}
		}
		dst.W[k] += m
	}
	type seg struct {
		k trace.Kind
		m uint32
	}
	rest := kr.W
	rest[trace.DataWrite] -= kr.Lead
	segs := []seg{{trace.DataWrite, kr.Lead}}
	if !kr.AllWrites() {
		segs = append(segs, seg{kr.First, 1})
		rest[kr.First]--
	}
	for _, k := range []trace.Kind{trace.DataRead, trace.DataWrite, trace.IFetch} {
		segs = append(segs, seg{k, rest[k]})
	}
	for _, sg := range segs {
		take := min(sg.m, n)
		add(&front, sg.k, take)
		add(&back, sg.k, sg.m-take)
		n -= take
	}
	return front, back
}

// TestShardedMidRunBoundaries feeds each tree its substream with every
// run cut through the middle (the boundary every chunked consumer must
// tolerate), the shallow pass the parent stream whole, and checks the
// stitched pass still matches the per-access pass — and each tree's
// own results match a tree fed its substream whole — proving the
// per-tree replay inherits the stream walks' mid-run soundness.
func TestShardedMidRunBoundaries(t *testing.T) {
	tr := workload.Take(workload.G721Enc.Generator(3), 20_000)
	for _, c := range shardCases {
		for _, sh := range []shape{{0, 6, 4, 16}, {1, 6, 4, 16}} {
			const log = 2
			label := fmt.Sprintf("%s/min%d", c.name, sh.minLog)
			spec := c.spec(sh, 1)
			ss := mustShard(t, c.blocks(t, tr, sh.block), log)
			split := &trace.ShardStream{BlockSize: ss.BlockSize, Log: ss.Log, Source: ss.Source,
				Shards: make([]trace.BlockStream, len(ss.Shards))}
			for i := range ss.Shards {
				split.Shards[i] = splitRuns(&ss.Shards[i])
			}

			cut, whole := c.newEngine(t, spec), c.newEngine(t, spec)
			if err := cut.SimulateSharded(context.Background(), split); err != nil {
				t.Fatal(err)
			}
			if err := whole.SimulateSharded(context.Background(), ss); err != nil {
				t.Fatal(err)
			}
			sameOutcome(t, label, outcomeOf(cut), c.oracle(t, spec, tr))
			a, b := passOf(cut).treeRecords(), passOf(whole).treeRecords()
			for tree := range b {
				for l := range b[tree] {
					if a[tree][l] != b[tree][l] {
						t.Errorf("%s: tree %d row %d: mid-run split %+v vs whole %+v", label, tree, l, a[tree][l], b[tree][l])
					}
				}
			}
		}
	}
}

// TestShardedPassResetAndLevelGuard checks, for every engine mode,
// what only the pass itself shows (the simulator packages test the
// rest through the engines): Reset zeroes every stitched record,
// traffic included, and the pass rejects a partition cut at another
// shard level than its own, which the engines never hand it because
// they rebuild the pass on a level change. Through the engine it also
// checks that a partition at another block size is rejected, and what
// a shard level above the set count does: the tree engines reject it,
// while the reference engine — like under Random replacement — replays
// the parent stream monolithically, exactly, with Parallel() false.
func TestShardedPassResetAndLevelGuard(t *testing.T) {
	tr := workload.Take(workload.DJPEG.Generator(5), 15_000)
	for _, c := range shardCases {
		spec := c.spec(shape{0, 6, 4, 16}, 2)
		bs := c.blocks(t, tr, spec.BlockSize)
		e := c.newEngine(t, spec)
		if err := e.SimulateSharded(context.Background(), mustShard(t, bs, 3)); err != nil {
			t.Fatal(err)
		}
		e.Reset()
		for _, r := range passOf(e).stitched() {
			if !zeroed(r) {
				t.Fatalf("%s: Reset left %+v in the sharded pass", c.name, r)
			}
		}
		if err := passOf(e).SimulateStream(context.Background(), mustShard(t, bs, 2)); err == nil {
			t.Errorf("%s: shard-level mismatch accepted", c.name)
		}

		above := mustShard(t, bs, spec.MaxLogSets+1)
		wide := mustShard(t, c.blocks(t, tr, 2*spec.BlockSize), 3)
		wideAbove := mustShard(t, c.blocks(t, tr, 2*spec.BlockSize), spec.MaxLogSets+1)
		if err := c.newEngine(t, spec).SimulateSharded(context.Background(), wide); err == nil {
			t.Errorf("%s: block-size mismatch accepted", c.name)
		}
		if c.engine != "ref" {
			if err := c.newEngine(t, spec).SimulateSharded(context.Background(), above); err == nil {
				t.Errorf("%s: shard level above MaxLogSets accepted", c.name)
			}
			continue
		}
		random := spec
		random.Policy = cache.Random
		for _, fb := range []struct {
			label string
			spec  Spec
			ss    *trace.ShardStream
		}{{"above", spec, above}, {"random", random, mustShard(t, bs, 3)}} {
			label := c.name + "/" + fb.label
			e := c.newEngine(t, fb.spec)
			if err := e.SimulateSharded(context.Background(), fb.ss); err != nil {
				t.Fatal(err)
			}
			if Parallel(e) {
				t.Errorf("%s: Parallel() = true on the monolithic fallback", label)
			}
			sameOutcome(t, label, outcomeOf(e), c.oracle(t, fb.spec, tr))
		}
		if err := c.newEngine(t, spec).SimulateSharded(context.Background(), wideAbove); err == nil {
			t.Errorf("%s: block-size mismatch accepted by the fallback", c.name)
		}
	}
}

// wideSeed is a fuzz seed for wide passes: n accesses to the blocks
// (i*i+i/3) mod m (each access's second byte is zero). wideSeed(23, 200)
// touches 21 distinct blocks, so a 16-way set fills and evicts;
// wideSeed(79, 600) touches 70, enough to fill and evict a 64-way set.
func wideSeed(m, n int) []byte {
	raw := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		raw = append(raw, byte((i*i+i/3)%m), 0)
	}
	return raw
}

// FuzzShardedEquivalence fuzzes the sharded pass against the
// per-access pass of its simulator — FIFO against the DEW core's
// Access, LRU against the LRU tree's — over arbitrary streams, 1 to
// 64 ways, arbitrary shard levels and forest shapes.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(2), uint8(4), uint8(0), uint8(1), false)
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(0), uint8(0), uint8(1), uint8(2), uint8(0), false)
	f.Add([]byte{9, 9, 1, 1, 9, 9, 1, 1, 2, 2}, uint8(3), uint8(1), uint8(3), uint8(1), uint8(3), false)
	f.Add([]byte{255, 0, 255, 1, 255, 2, 255, 3}, uint8(1), uint8(3), uint8(2), uint8(3), uint8(2), false)
	f.Add(wideSeed(23, 200), uint8(4), uint8(0), uint8(1), uint8(0), uint8(1), false)
	f.Add(wideSeed(79, 600), uint8(6), uint8(0), uint8(1), uint8(0), uint8(1), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(2), uint8(4), uint8(0), uint8(1), true)
	f.Add([]byte{9, 9, 1, 1, 9, 9, 1, 1, 2, 2}, uint8(3), uint8(1), uint8(3), uint8(1), uint8(3), true)
	f.Add(wideSeed(79, 600), uint8(6), uint8(0), uint8(1), uint8(0), uint8(1), true)
	f.Fuzz(func(t *testing.T, raw []byte, logAssoc, logBlock, maxLog, minLog, shard uint8, lru bool) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		// shard's top bit selects a reference engine mode (by logBlock's
		// high bits); the rest pick a tree engine by policy.
		c := shardCases[0]
		if lru {
			c = shardCases[1]
		}
		if shard >= 128 {
			c = shardCases[2+int(logBlock/4)%3]
		}
		spec := c.spec(shape{
			minLog: int(minLog % 4),
			maxLog: int(minLog%4) + int(maxLog%5),
			assoc:  1 << (logAssoc % 7),
			block:  1 << (logBlock % 4),
		}, 3)
		log := int(shard%128) % (spec.MaxLogSets + 1)
		tr := make(trace.Trace, 0, len(raw)/2+1)
		for i := 0; i+1 < len(raw); i += 2 {
			tr = append(tr, trace.Access{Addr: uint64(raw[i])<<3 | uint64(raw[i+1])&7})
		}
		if len(tr) == 0 {
			return
		}
		e := c.newEngine(t, spec)
		if err := e.SimulateSharded(context.Background(), mustShard(t, c.blocks(t, tr, spec.BlockSize), log)); err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, fmt.Sprintf("%s/S%d", c.name, log), outcomeOf(e), c.oracle(t, spec, tr))
		if n := accesses(t, e); n != uint64(len(tr)) {
			t.Fatalf("accesses = %d, want %d", n, len(tr))
		}
	})
}
