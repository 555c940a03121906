package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dew/internal/cache"
	"dew/internal/leakcheck"
	"dew/internal/pool"
	"dew/internal/refsim"
	"dew/internal/trace"
	"dew/internal/trace/faultreader"
	"dew/internal/workload"
)

// splitSpans cuts a materialized stream at the given run indices — the
// same final-run boundaries the span pipeline cuts at.
func splitSpans(bs *trace.BlockStream, cuts []int) []*trace.Span {
	bounds := append(append([]int{0}, cuts...), len(bs.IDs))
	var spans []*trace.Span
	var start uint64
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if lo >= hi {
			continue
		}
		s := &trace.Span{Start: start, Seq: len(spans)}
		s.BlockStream = trace.BlockStream{BlockSize: bs.BlockSize, IDs: bs.IDs[lo:hi], Runs: bs.Runs[lo:hi]}
		if bs.Kinds != nil {
			s.Kinds = bs.Kinds[lo:hi]
		}
		for _, w := range s.Runs {
			s.Accesses += uint64(w)
		}
		start += s.Accesses
		spans = append(spans, s)
	}
	return spans
}

// pipelineSpecs enumerates every engine × policy × write/alloc combo
// the streamed replay must reproduce exactly.
func pipelineSpecs(block int) []struct {
	name  string
	label string
	spec  Spec
} {
	var out []struct {
		name  string
		label string
		spec  Spec
	}
	add := func(name, label string, spec Spec) {
		out = append(out, struct {
			name  string
			label string
			spec  Spec
		}{name, label, spec})
	}
	add("dew", "dew/fifo", Spec{MaxLogSets: 5, Assoc: 2, BlockSize: block, Policy: cache.FIFO})
	add("dew", "dew/lru", Spec{MaxLogSets: 5, Assoc: 2, BlockSize: block, Policy: cache.LRU})
	add("lrutree", "lrutree", Spec{MaxLogSets: 5, Assoc: 4, BlockSize: block, Policy: cache.LRU})
	add("ref", "ref/lru", Spec{MinLogSets: 4, MaxLogSets: 4, Assoc: 2, BlockSize: block, Policy: cache.LRU})
	add("ref", "ref/random", Spec{MinLogSets: 4, MaxLogSets: 4, Assoc: 2, BlockSize: block, Policy: cache.Random})
	for _, wp := range []refsim.WritePolicy{refsim.WriteBack, refsim.WriteThrough} {
		for _, ap := range []refsim.AllocPolicy{refsim.WriteAllocate, refsim.NoWriteAllocate} {
			add("ref", fmt.Sprintf("ref/%v-%v", wp, ap), Spec{
				MinLogSets: 4, MaxLogSets: 4, Assoc: 2, BlockSize: block, Policy: cache.LRU,
				WriteSim: true, Write: wp, Alloc: ap, StoreBytes: 2,
			})
		}
	}
	return out
}

// sameEngineState compares the full statistics surface of two engines.
func sameEngineState(t *testing.T, label string, got, want Engine) {
	t.Helper()
	gr, wr := got.Results(), want.Results()
	if len(gr) != len(wr) {
		t.Fatalf("%s: %d results, want %d", label, len(gr), len(wr))
	}
	for i := range gr {
		if gr[i] != wr[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, gr[i], wr[i])
		}
	}
	if g, w := accesses(t, got), accesses(t, want); g != w {
		t.Fatalf("%s: accesses %d, want %d", label, g, w)
	}
	if ws, ok := want.(RefStatser); ok {
		if gs := got.(RefStatser).RefStats(); gs != ws.RefStats() {
			t.Fatalf("%s: ref stats = %+v, want %+v", label, gs, ws.RefStats())
		}
	}
	if wt, ok := want.(TrafficStatser); ok {
		if gt := got.(TrafficStatser).RefTraffic(); gt != wt.RefTraffic() {
			t.Fatalf("%s: traffic = %+v, want %+v", label, gt, wt.RefTraffic())
		}
	}
}

// replaySpans replays spans through e with a one-rung span-ladder
// driver at shard level log (negative: monolithic) — the span loop every
// tool runs.
func replaySpans(e Engine, spans []*trace.Span, log int) error {
	block := spans[0].BlockSize
	l, err := NewSpanLadder(block, []int{block}, spans[0].Kinds != nil, log, 1, map[int][]Engine{block: {e}})
	if err != nil {
		return err
	}
	for _, s := range spans {
		if err := l.Feed(context.Background(), &s.BlockStream); err != nil {
			return err
		}
	}
	return l.Flush(context.Background())
}

// TestSimulateSpansEverySplit replays each engine through the span-ladder
// driver over the stream split at every single run boundary (and at
// several multi-span strides), monolithically and sharded span by span:
// results must be bit-identical to the monolithic replay of the whole
// stream.
func TestSimulateSpansEverySplit(t *testing.T) {
	tr := engineKindTrace(600)
	const block = 8
	plain, err := tr.BlockStream(block)
	if err != nil {
		t.Fatal(err)
	}
	kinded, err := trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), block)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range pipelineSpecs(block) {
		bs := plain
		if tc.spec.WriteSim {
			bs = kinded
		}
		oracle, err := New(tc.name, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		for _, log := range []int{-1, 0, 2} {
			// Every single-cut split.
			for cut := 0; cut <= len(bs.IDs); cut++ {
				e, err := New(tc.name, tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := replaySpans(e, splitSpans(bs, []int{cut}), log); err != nil {
					t.Fatal(err)
				}
				sameEngineState(t, fmt.Sprintf("%s log=%d cut=%d", tc.label, log, cut), e, oracle)
			}
			// Uniform strides: many spans per replay.
			for _, stride := range []int{1, 3, 17} {
				var cuts []int
				for c := stride; c < len(bs.IDs); c += stride {
					cuts = append(cuts, c)
				}
				e, err := New(tc.name, tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := replaySpans(e, splitSpans(bs, cuts), log); err != nil {
					t.Fatal(err)
				}
				sameEngineState(t, fmt.Sprintf("%s log=%d stride=%d", tc.label, log, stride), e, oracle)
			}
		}
	}
}

// TestReplayPipelineMatchesMaterialized runs every engine through the
// span-ladder driver over a live span pipeline with a tiny budget and
// checks against the monolithic materialized replay.
func TestReplayPipelineMatchesMaterialized(t *testing.T) {
	tr := engineKindTrace(20000)
	const block = 8
	plain, err := tr.BlockStream(block)
	if err != nil {
		t.Fatal(err)
	}
	kinded, err := trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), block)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range pipelineSpecs(block) {
		bs := plain
		if tc.spec.WriteSim {
			bs = kinded
		}
		oracle, err := New(tc.name, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		p, err := trace.StreamSpans(context.Background(), tr.NewSliceReader(), block,
			trace.SpanOptions{MemBytes: 1, Workers: 3, Kinds: tc.spec.WriteSim})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(tc.name, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := feedPipeline(context.Background(), p, block, tc.spec.WriteSim, 2, map[int][]Engine{block: {e}}); err != nil {
			t.Fatal(err)
		}
		sameEngineState(t, tc.label+" streamed", e, oracle)
	}
}

// feedPipeline drains a live span pipeline through a span-ladder driver
// built from the rest of the arguments (unsharded, ladder = the keys of
// engs plus base), then closes the pipeline.
func feedPipeline(ctx context.Context, p *trace.StreamPipeline, base int, kinds bool, workers int, engs map[int][]Engine) error {
	defer p.Close()
	blocks := []int{base}
	for b := range engs {
		blocks = append(blocks, b)
	}
	l, err := NewSpanLadder(base, blocks, kinds, -1, workers, engs)
	if err != nil {
		return err
	}
	for s := range p.Spans() {
		if err := l.Feed(ctx, &s.BlockStream); err != nil {
			return err
		}
	}
	if err := p.Err(); err != nil {
		return err
	}
	return l.Flush(ctx)
}

func TestReplayPipelineErrors(t *testing.T) {
	defer leakcheck.Check(t)()
	spec := Spec{MaxLogSets: 3, Assoc: 1, BlockSize: 8, Policy: cache.LRU}
	tr := engineTrace(30000)
	bs, err := tr.BlockStream(8)
	if err != nil {
		t.Fatal(err)
	}
	spans := trace.SplitSpans(bs, 64)

	// A source failure surfaces from the plan's replay once the
	// pipeline stops, after the spans decoded before it replayed.
	boom := errors.New("decode died")
	plan := &Plan{Passes: []Pass{{Engine: "dew", Spec: spec}}}
	_, _, err = plan.Replay(context.Background(), Spans{
		Blocks: []int{8}, ShardLog: -1, Workers: 2,
		Decode: func() (*trace.StreamPipeline, error) {
			return trace.StreamSpans(context.Background(), faultreader.NewAccess(tr.NewSliceReader(), 20000, boom), 8,
				trace.SpanOptions{MemBytes: 1, Workers: 2})
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("source failure surfaced as %v", err)
	}

	// Engines keyed at a block size outside the ladder are refused.
	e, err := New("dew", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSpanLadder(8, []int{8, 32}, false, -1, 2, map[int][]Engine{16: {e}}); err == nil {
		t.Fatal("engines off the ladder accepted")
	}

	// A span at the wrong block size fails the fold before any replay.
	l, err := NewSpanLadder(8, []int{8}, false, -1, 2, map[int][]Engine{8: {e}})
	if err != nil {
		t.Fatal(err)
	}
	bad := &trace.BlockStream{BlockSize: 16, IDs: []uint64{1}, Runs: []uint32{1}, Accesses: 1}
	if err := l.Feed(context.Background(), bad); err == nil {
		t.Fatal("mismatched span fed without error")
	}
	if n := accesses(t, e); n != 0 {
		t.Fatalf("a refused span replayed %d accesses", n)
	}

	// A simulate error in one rung aborts the Feed, naming the rung; the
	// rungs replaying beside it finish first (the pool drains).
	good, err := New("dew", Spec{MaxLogSets: 3, Assoc: 1, BlockSize: 32, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := New("dew", spec) // a block-8 pass on the block-16 rung
	if err != nil {
		t.Fatal(err)
	}
	l, err = NewSpanLadder(8, []int{16, 32}, false, -1, 2, map[int][]Engine{16: {wrong}, 32: {good}})
	if err != nil {
		t.Fatal(err)
	}
	err = l.Feed(context.Background(), &spans[0].BlockStream)
	if err == nil || !strings.Contains(err.Error(), "rung B=16") {
		t.Fatalf("rung simulate failure surfaced as %v", err)
	}

	// Cancellation between spans, with a live pipeline drained by Close.
	ctx, cancel := context.WithCancel(context.Background())
	p, err := trace.StreamSpans(ctx, tr.NewSliceReader(), 8, trace.SpanOptions{MemBytes: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	e3, err := New("dew", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedPipeline(ctx, p, 8, false, 2, map[int][]Engine{8: {e3}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipeline replay: %v", err)
	}
}

// scatterGen is a workload.Generator with deliberately terrible run
// compression: almost every access lands in a new block, so the
// materialized stream costs ~12 bytes per access and a full-stream
// accumulation is impossible to miss against a small budget.
type scatterGen struct{ rng *rand.Rand }

func (g *scatterGen) Next() trace.Access {
	return trace.Access{Addr: uint64(g.rng.Int63n(1 << 34)), Kind: trace.DataRead}
}

// TestReplayPipelineBoundedMemory streams an endless-feed workload
// whose materialized stream would be ~10× the budget through a
// three-rung span-ladder driver and asserts, via runtime.ReadMemStats
// sampled across the replay, that heap growth stays bounded — the
// regression guard against accidental full-stream accumulation
// anywhere in the span path.
func TestReplayPipelineBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million access stream")
	}
	const n = 6_000_000 // ~72 MiB materialized at ~12 B/run
	const budget = 4 << 20
	r := workload.Stream(&scatterGen{rng: rand.New(rand.NewSource(99))}, n)
	p, err := trace.StreamSpans(context.Background(), r, 64, trace.SpanOptions{MemBytes: budget, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	engs := map[int][]Engine{}
	for _, b := range []int{64, 128, 256} {
		e, err := New("dew", Spec{MaxLogSets: 3, Assoc: 1, BlockSize: b, Policy: cache.LRU})
		if err != nil {
			t.Fatal(err)
		}
		engs[b] = []Engine{e}
	}
	l, err := NewSpanLadder(64, []int{64, 128, 256}, false, -1, 2, engs)
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak uint64
	spans := 0
	for s := range p.Spans() {
		if err := l.Feed(context.Background(), &s.BlockStream); err != nil {
			t.Fatal(err)
		}
		if spans++; spans%16 == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
		}
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	for b, es := range engs {
		if got := accesses(t, es[0]); got != n {
			t.Fatalf("rung B=%d simulated %d accesses, want %d", b, got, n)
		}
	}
	if spans < 8 {
		t.Fatalf("budget %d produced only %d spans", budget, spans)
	}
	// Generous slack over the ~4 MiB pipeline bound for GC lag, the fold
	// stages' output spans and the engines' own arenas — but far under
	// the ~72 MiB a full-stream accumulation would show.
	if limit := base + 32<<20; peak > limit {
		t.Fatalf("heap peaked at %d bytes (baseline %d): streaming is not bounded", peak, base)
	}
}

// ladderEngines builds the live engines of every rung for one engine
// family of TestSpanLadderMatchesReplay: two DEW FIFO passes per rung
// (so a rung replays several engines in order), one LRU simulation
// tree, or one write-through no-write-allocate reference configuration
// over kind-preserving spans.
func ladderEngines(t *testing.T, family string, blocks []int) map[int][]Engine {
	t.Helper()
	engs := map[int][]Engine{}
	for _, b := range blocks {
		var specs []Spec
		name := family
		switch family {
		case "dew":
			specs = []Spec{
				{MaxLogSets: 5, Assoc: 2, BlockSize: b, Policy: cache.FIFO},
				{MinLogSets: 1, MaxLogSets: 5, Assoc: 4, BlockSize: b, Policy: cache.FIFO},
			}
		case "lrutree":
			specs = []Spec{{MaxLogSets: 5, Assoc: 4, BlockSize: b, Policy: cache.LRU}}
		case "ref":
			specs = []Spec{{MinLogSets: 4, MaxLogSets: 4, Assoc: 2, BlockSize: b, Policy: cache.FIFO,
				WriteSim: true, Write: refsim.WriteThrough, Alloc: refsim.NoWriteAllocate, StoreBytes: 2}}
		}
		for _, spec := range specs {
			e, err := New(name, spec)
			if err != nil {
				t.Fatal(err)
			}
			engs[b] = append(engs[b], e)
		}
	}
	return engs
}

// TestSpanLadderMatchesReplay is the driver's exactness table: for every
// engine family, ladder depth (1, 3 and 7 rungs), shard level, worker
// count and span size (down to one run per span), the span-ladder
// driver's accumulated results must equal the materialized
// engine.Replay of each rung's directly materialized stream, bit for
// bit, and its per-rung shape must match that stream's. CI runs it
// under -race, which also proves the concurrent rungs share no state.
func TestSpanLadderMatchesReplay(t *testing.T) {
	tr := engineKindTrace(2500)
	ladders := [][]int{{8}, {4, 16, 64}, {4, 8, 16, 32, 64, 128, 256}}
	for _, family := range []string{"dew", "lrutree", "ref"} {
		kinds := family == "ref"
		for _, blocks := range ladders {
			// The oracle: a materialized stream per rung, one Replay.
			want := ladderEngines(t, family, blocks)
			streams := map[int]*trace.BlockStream{}
			for _, b := range blocks {
				bs, err := tr.BlockStream(b)
				if kinds {
					bs, err = trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), b)
				}
				if err != nil {
					t.Fatal(err)
				}
				streams[b] = bs
				for _, e := range want[b] {
					if err := Replay(context.Background(), e, bs, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, log := range []int{-1, 1, 2} {
				for _, workers := range []int{1, 2, 4} {
					for _, spanRuns := range []int{1, 37} {
						label := fmt.Sprintf("%s ladder=%v log=%d workers=%d spanRuns=%d", family, blocks, log, workers, spanRuns)
						got := ladderEngines(t, family, blocks)
						l, err := NewSpanLadder(blocks[0], blocks, kinds, log, workers, got)
						if err != nil {
							t.Fatal(err)
						}
						for _, s := range trace.SplitSpans(streams[blocks[0]], spanRuns) {
							if err := l.Feed(context.Background(), &s.BlockStream); err != nil {
								t.Fatalf("%s: %v", label, err)
							}
						}
						if err := l.Flush(context.Background()); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for _, b := range blocks {
							for i := range got[b] {
								sameEngineState(t, fmt.Sprintf("%s B=%d engine %d", label, b, i), got[b][i], want[b][i])
							}
							if acc, runs := l.Shape(b); acc != streams[b].Accesses || runs != uint64(streams[b].Len()) {
								t.Fatalf("%s B=%d: shape %d accesses/%d runs, want %d/%d",
									label, b, acc, runs, streams[b].Accesses, streams[b].Len())
							}
						}
					}
				}
			}
		}
	}
}

// TestSpanLadderPanic panics inside one rung's engine, once mid-stream
// and once during Flush: each must surface as a *pool.PanicError from
// the driver call, with no goroutine left behind.
func TestSpanLadderPanic(t *testing.T) {
	defer leakcheck.Check(t)()
	tr := engineTrace(6000)
	bs, err := tr.BlockStream(8)
	if err != nil {
		t.Fatal(err)
	}
	spans := trace.SplitSpans(bs, 100)
	blocks := []int{8, 32, 128}
	for _, inFlush := range []bool{false, true} {
		for _, log := range []int{-1, 2} {
			armed := !inFlush
			calls := 0
			engs := ladderEngines(t, "dew", blocks)
			engs[32][1] = &hookEngine{Engine: engs[32][1], before: func() {
				if calls++; armed && calls == 3 {
					panic("rung engine exploded")
				}
			}}
			l, err := NewSpanLadder(8, blocks, false, log, 2, engs)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range spans {
				if err = l.Feed(context.Background(), &s.BlockStream); err != nil {
					break
				}
			}
			if inFlush {
				if err != nil {
					t.Fatalf("log=%d: unarmed feed: %v", log, err)
				}
				armed, calls = true, 2
				err = l.Flush(context.Background())
			}
			var pe *pool.PanicError
			if !errors.As(err, &pe) || pe.Value != "rung engine exploded" {
				t.Fatalf("flush=%v log=%d: panic surfaced as %v", inFlush, log, err)
			}
		}
	}
}
