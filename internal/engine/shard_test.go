package engine

import (
	"context"
	"fmt"
	"testing"

	"dew/internal/cache"
	"dew/internal/core"
	"dew/internal/lrutree"
	"dew/internal/trace"
	"dew/internal/workload"
)

// shardCase is one tree engine the sharded pass serves, with the
// per-access oracle its results must equal: the simulator's
// instrumented walk, fed one access at a time.
type shardCase struct {
	name   string
	engine string
	policy cache.Policy
	oracle func(t testing.TB, spec Spec, tr trace.Trace) []Result
}

var shardCases = []shardCase{
	{"dew-FIFO", "dew", cache.FIFO, func(t testing.TB, spec Spec, tr trace.Trace) []Result {
		s, err := core.New(coreOptions(spec))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range tr {
			s.Access(a)
		}
		return results(s.Results())
	}},
	{"lrutree-LRU", "lrutree", cache.LRU, func(t testing.TB, spec Spec, tr trace.Trace) []Result {
		s, err := lrutree.New(treeOptions(spec))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range tr {
			s.Access(a)
		}
		return results(s.Results())
	}},
}

// shape is a pass shape the sharded tests cover under every policy.
type shape struct{ minLog, maxLog, assoc, block int }

func (c shardCase) spec(sh shape, workers int) Spec {
	return Spec{MinLogSets: sh.minLog, MaxLogSets: sh.maxLog, Assoc: sh.assoc, BlockSize: sh.block,
		Policy: c.policy, Workers: workers}
}

func (c shardCase) newEngine(t testing.TB, spec Spec) Engine {
	t.Helper()
	e, err := New(c.engine, spec)
	if err != nil {
		t.Fatal(err)
	}
	return e
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

// passOf is the sharded pass behind a tree engine that has replayed
// sharded.
func passOf(e Engine) interface {
	SimulateStream(ctx context.Context, ss *trace.ShardStream) error
	Results() []Result
	treeResults() [][]Result
} {
	switch e := e.(type) {
	case *dewEngine:
		return e.sharded
	case *lruEngine:
		return e.sharded
	}
	panic(fmt.Sprintf("%T is not a tree engine", e))
}

// treeResults returns each tree's own results, in tree-local terms.
func (p *shardedPass[R]) treeResults() [][]Result {
	out := make([][]Result, len(p.trees))
	for t, tree := range p.trees {
		out[t] = results(tree.Results())
	}
	return out
}

// splitRuns returns the stream with every run of weight w > 1 cut into
// runs of w/2 and w-w/2 of the same block, so each second half starts
// mid-run.
func splitRuns(bs *trace.BlockStream) trace.BlockStream {
	out := trace.BlockStream{BlockSize: bs.BlockSize, Accesses: bs.Accesses}
	for i, id := range bs.IDs {
		if w := bs.Runs[i]; w > 1 {
			out.IDs = append(out.IDs, id, id)
			out.Runs = append(out.Runs, w/2, w-w/2)
		} else {
			out.IDs = append(out.IDs, id)
			out.Runs = append(out.Runs, w)
		}
	}
	return out
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
			ss := mustShard(t, mustBlocks(t, tr, sh.block), log)
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
			sameResults(t, label, cut.Results(), c.oracle(t, spec, tr))
			a, b := passOf(cut).treeResults(), passOf(whole).treeResults()
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

// TestShardedPassResetAndLevelGuard checks, for both tree engines,
// what only the pass itself shows (the dew and lrutree packages test
// the rest through the engines): Reset zeroes every stitched row, and
// the pass rejects a partition cut at another shard level than its
// own, which the engines never hand it because they rebuild the pass
// on a level change.
func TestShardedPassResetAndLevelGuard(t *testing.T) {
	tr := workload.Take(workload.DJPEG.Generator(5), 15_000)
	for _, c := range shardCases {
		spec := c.spec(shape{0, 6, 4, 16}, 2)
		bs := mustBlocks(t, tr, spec.BlockSize)
		e := c.newEngine(t, spec)
		if err := e.SimulateSharded(context.Background(), mustShard(t, bs, 3)); err != nil {
			t.Fatal(err)
		}
		e.Reset()
		for _, r := range passOf(e).Results() {
			if r.Accesses != 0 || r.Misses != 0 {
				t.Fatalf("%s: Reset left %+v in the sharded pass", c.name, r)
			}
		}
		if err := passOf(e).SimulateStream(context.Background(), mustShard(t, bs, 2)); err == nil {
			t.Errorf("%s: shard-level mismatch accepted", c.name)
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
		c := shardCases[0]
		if lru {
			c = shardCases[1]
		}
		spec := c.spec(shape{
			minLog: int(minLog % 4),
			maxLog: int(minLog%4) + int(maxLog%5),
			assoc:  1 << (logAssoc % 7),
			block:  1 << (logBlock % 4),
		}, 3)
		log := int(shard) % (spec.MaxLogSets + 1)
		tr := make(trace.Trace, 0, len(raw)/2+1)
		for i := 0; i+1 < len(raw); i += 2 {
			tr = append(tr, trace.Access{Addr: uint64(raw[i])<<3 | uint64(raw[i+1])&7})
		}
		if len(tr) == 0 {
			return
		}
		e := c.newEngine(t, spec)
		if err := e.SimulateSharded(context.Background(), mustShard(t, mustBlocks(t, tr, spec.BlockSize), log)); err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("%s/S%d", c.name, log), e.Results(), c.oracle(t, spec, tr))
		if n := accesses(t, e); n != uint64(len(tr)) {
			t.Fatalf("accesses = %d, want %d", n, len(tr))
		}
	})
}
