package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dew/internal/leakcheck"
)

// collectSpans drains a pipeline and fails on any terminal error.
func collectSpans(t *testing.T, p *StreamPipeline) []*Span {
	t.Helper()
	var spans []*Span
	for s := range p.Spans() {
		spans = append(spans, s)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// checkSpanInvariants verifies ordering and per-span bookkeeping: Seq
// dense from 0, Start continuous, Accesses equal to the run-weight sum.
func checkSpanInvariants(t *testing.T, spans []*Span) {
	t.Helper()
	var start uint64
	for i, s := range spans {
		if s.Seq != i {
			t.Fatalf("span %d carries Seq %d", i, s.Seq)
		}
		if s.Start != start {
			t.Fatalf("span %d starts at %d, want %d", i, s.Start, start)
		}
		var acc uint64
		for _, w := range s.Runs {
			acc += uint64(w)
		}
		if acc != s.Accesses {
			t.Fatalf("span %d claims %d accesses, runs sum to %d", i, s.Accesses, acc)
		}
		if s.Len() == 0 {
			t.Fatalf("span %d is empty", i)
		}
		start += acc
	}
}

// streamSpansWithRuns is the test entry with an explicit span size and
// decode chunk size, so boundaries land everywhere the geometry clamps
// would avoid.
func streamSpansWithRuns(ctx context.Context, r Reader, blockSize int, opts SpanOptions, spanRuns, chunkAcc int) (*StreamPipeline, error) {
	p, st, err := newStreamPipeline(blockSize, opts)
	if err != nil {
		return nil, err
	}
	if spanRuns > 0 {
		st.spanRuns = spanRuns
	}
	if chunkAcc <= 0 {
		chunkAcc = p.chunkAcc
	}
	p.start(ctx, st, spanReaderProducer(r, blockSize, opts.Kinds, chunkAcc, liveChunks(p.workers)))
	return p, nil
}

func TestStreamSpansMatchesMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ctx := context.Background()
	for _, n := range []int{0, 1, 7, 3000, 30000} {
		tr := pipelineTrace(rng, n)
		for _, block := range []int{1, 4, 32} {
			for _, kinds := range []bool{false, true} {
				want := oracleOf(tr, block, kinds)
				mat, err := MaterializeBlockStream(tr.NewSliceReader(), block)
				if kinds {
					mat, err = MaterializeBlockStreamWithKinds(tr.NewSliceReader(), block)
				}
				if err != nil {
					t.Fatal(err)
				}
				sameBlockStream(t, fmt.Sprintf("n=%d block=%d kinds=%v materialized", n, block, kinds), mat, want)
				for _, geo := range [][2]int{{1, 3}, {2, 64}, {7, 997}, {0, 0}} {
					p, err := streamSpansWithRuns(ctx, tr.NewSliceReader(), block,
						SpanOptions{MemBytes: 1, Workers: 3, Kinds: kinds}, geo[0], geo[1])
					if err != nil {
						t.Fatal(err)
					}
					spans := collectSpans(t, p)
					checkSpanInvariants(t, spans)
					got := ConcatSpans(block, kinds, spans)
					label := fmt.Sprintf("n=%d block=%d kinds=%v spanRuns=%d chunk=%d", n, block, kinds, geo[0], geo[1])
					sameBlockStream(t, label, got, want)
					if p.EmittedSpans() != uint64(len(spans)) || p.EmittedAccesses() != want.Accesses {
						t.Fatalf("%s: counters report %d spans/%d accesses, want %d/%d",
							label, p.EmittedSpans(), p.EmittedAccesses(), len(spans), want.Accesses)
					}
				}
			}
		}
	}
}

// TestSplitSpans: cutting a materialized stream yields the spans a
// pipeline emits — dense Seq, continuous Start, at most spanRuns runs,
// sharing the stream's columns — and they concatenate back exactly.
func TestSplitSpans(t *testing.T) {
	tr := pipelineTrace(rand.New(rand.NewSource(8)), 30000)
	for _, kinds := range []bool{false, true} {
		bs, err := tr.BlockStream(8)
		if kinds {
			bs, err = MaterializeBlockStreamWithKinds(tr.NewSliceReader(), 8)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, spanRuns := range []int{1, 5, 1000, bs.Len(), 0} {
			spans := SplitSpans(bs, spanRuns)
			checkSpanInvariants(t, spans)
			label := fmt.Sprintf("kinds=%v spanRuns=%d", kinds, spanRuns)
			sameBlockStream(t, label, ConcatSpans(8, kinds, spans), bs)
			for _, s := range spans {
				if spanRuns > 0 && s.Len() > spanRuns {
					t.Fatalf("%s: span of %d runs", label, s.Len())
				}
			}
			if len(spans) > 0 && &spans[0].IDs[0] != &bs.IDs[0] {
				t.Fatalf("%s: spans copy the stream's columns", label)
			}
		}
		// The default size is the default pipeline's span size.
		want, _, _ := spanGeometry(DefaultSpanMemBytes, 1, kinds)
		if got := SplitSpans(bs, 0)[0].Len(); got != min(want, bs.Len()) {
			t.Errorf("kinds=%v: default span of %d runs, want %d", kinds, got, min(want, bs.Len()))
		}
	}
	if spans := SplitSpans(&BlockStream{BlockSize: 8}, 3); len(spans) != 0 {
		t.Errorf("empty stream split into %d spans", len(spans))
	}
}

// TestDinGeometryBudget pins the .din chunk geometry on 2 workers. A
// small budget sizes text chunks from the access chunk (16 KiB at its
// 1024-access floor), so a 64 KiB kind-preserving budget bounds the
// decode below the 2,438,144 B it reached with text chunks floored at
// 64 KiB; the default budget, which every benchmark workload runs at,
// keeps its geometry.
func TestDinGeometryBudget(t *testing.T) {
	geom := func(mem int64, kinds bool) (int, int64) {
		spanRuns, chunkAcc, _ := spanGeometry(mem, 2, kinds)
		return dinGeometry(spanRuns, chunkAcc, 2, kinds)
	}
	if chunkBytes, resident := geom(64<<10, true); chunkBytes != 16<<10 || resident >= 2438144 {
		t.Errorf("64 KiB budget: %d B text chunks, resident bound %d B; want 16 KiB chunks and a bound below 2438144 B", chunkBytes, resident)
	}
	for _, c := range []struct {
		kinds      bool
		chunkBytes int
		resident   int64
	}{{false, 599184, 13940374}, {true, 349520, 16978985}} {
		if chunkBytes, resident := geom(DefaultSpanMemBytes, c.kinds); chunkBytes != c.chunkBytes || resident != c.resident {
			t.Errorf("default budget, kinds=%v: (%d, %d), want (%d, %d)", c.kinds, chunkBytes, resident, c.chunkBytes, c.resident)
		}
	}
}

// TestDinResidentBound runs .din pipelines over the shortest lines,
// "0 0\n" and "0 1\n", which reserve the most runs per byte of text, and
// requires ResidentBound to cover every buffer the pipeline reserved:
// the text buffers, run chunks and spans left on its free lists once a
// releasing consumer has drained it, each within its own charge.
func TestDinResidentBound(t *testing.T) {
	text := bytes.Repeat([]byte("0 0\n0 1\n"), 1<<19)
	for _, mem := range []int64{0, 1 << 20, 64 << 10} {
		for _, kinds := range []bool{false, true} {
			label := fmt.Sprintf("mem=%d kinds=%v", mem, kinds)
			p, err := StreamDinSpans(context.Background(), bytes.NewReader(text), 1, SpanOptions{MemBytes: mem, Workers: 2, Kinds: kinds})
			if err != nil {
				t.Fatal(err)
			}
			var acc uint64
			for s := range p.Spans() {
				acc += s.Accesses
				p.Release(s)
			}
			if err := p.Err(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if acc != 1<<20 {
				t.Fatalf("%s: %d accesses, want %d", label, acc, 1<<20)
			}
			bpr := bytesPerSpanRun(kinds)
			chunkBytes, _ := dinGeometry(p.spanRuns, p.chunkAcc, p.workers, kinds)
			textCap := dinTextCap(chunkBytes)
			var reserved int64
			texts, chunks := 0, 0
			for len(p.freeText) > 0 {
				b := <-p.freeText
				if cap(b) > textCap {
					t.Errorf("%s: text buffer of %d B, charged %d", label, cap(b), textCap)
				}
				reserved += int64(cap(b))
				texts++
			}
			for len(p.freeChunks) > 0 {
				c := <-p.freeChunks
				if cap(c.IDs) > dinMaxRuns(textCap) || cap(c.Runs) != cap(c.IDs) || kinds && cap(c.Kinds) != cap(c.IDs) {
					t.Errorf("%s: chunk of %d runs, charged %d", label, cap(c.IDs), dinMaxRuns(textCap))
				}
				reserved += int64(cap(c.IDs)) * bpr
				chunks++
			}
			for len(p.freeSpans) > 0 {
				s := <-p.freeSpans
				if cap(s.IDs) > p.spanRuns {
					t.Errorf("%s: span of %d runs, charged %d", label, cap(s.IDs), p.spanRuns)
				}
				reserved += int64(cap(s.IDs)) * bpr
			}
			if texts == 0 || chunks == 0 {
				t.Fatalf("%s: %d text buffers and %d chunks parked; want some of each", label, texts, chunks)
			}
			if bound := p.ResidentBound(); reserved > bound {
				t.Errorf("%s: buffers reserve %d B, ResidentBound %d", label, reserved, bound)
			}
		}
	}
}

func TestStreamSpansGeometry(t *testing.T) {
	p, err := StreamSpans(context.Background(), Trace{}.NewSliceReader(), 16, SpanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.memBytes != DefaultSpanMemBytes {
		t.Errorf("default budget %d, want %d", p.memBytes, DefaultSpanMemBytes)
	}
	if p.ResidentBound() <= 0 {
		t.Errorf("resident bound %d, want > 0", p.ResidentBound())
	}
	// Large-budget geometry must still respect the budget's order of
	// magnitude: a tiny budget clamps to the minimum working set.
	for _, mem := range []int64{1, 1 << 20, 256 << 20} {
		spanRuns, chunkAcc, resident := spanGeometry(mem, 4, true)
		if spanRuns < 256 || chunkAcc < 1024 {
			t.Fatalf("mem=%d: geometry under minima: %d/%d", mem, spanRuns, chunkAcc)
		}
		if mem >= 1<<20 && resident > 4*mem {
			t.Errorf("mem=%d: resident bound %d far exceeds budget", mem, resident)
		}
	}
	if _, err := StreamSpans(context.Background(), Trace{}.NewSliceReader(), 3, SpanOptions{}); err == nil {
		t.Error("want error for non-power-of-two block size")
	}
}

// TestStreamDinSpans runs the chunk-parallel .din text decode through
// the span pipeline against the serial materialization.
func TestStreamDinSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tr := pipelineTrace(rng, 40000)
	text := dinText(tr)
	for _, kinds := range []bool{false, true} {
		var want *BlockStream
		var err error
		if kinds {
			want, err = MaterializeBlockStreamWithKinds(tr.NewSliceReader(), 16)
		} else {
			want, err = tr.BlockStream(16)
		}
		if err != nil {
			t.Fatal(err)
		}
		p, err := StreamDinSpans(context.Background(), bytes.NewReader(text), 16,
			SpanOptions{MemBytes: 1, Workers: 4, Kinds: kinds})
		if err != nil {
			t.Fatal(err)
		}
		spans := collectSpans(t, p)
		checkSpanInvariants(t, spans)
		sameBlockStream(t, fmt.Sprintf("din kinds=%v", kinds), ConcatSpans(16, kinds, spans), want)
	}

	// A bad line aborts the pipeline with the exact line number, same as
	// the serial reader.
	bad := "2 40\n1 80\nbogus line\n2 c0\n"
	p, err := StreamDinSpans(context.Background(), strings.NewReader(bad), 4, SpanOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for range p.Spans() {
	}
	if err := p.Err(); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("bad din line: %v, want error naming line 3", err)
	}
}

func TestStreamFileSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := pipelineTrace(rng, 3000)
	want, err := MaterializeBlockStreamWithKinds(tr.NewSliceReader(), 8)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"t.din", "t.dtb", "t.din.gz", "t.dtb.gz"} {
		path := filepath.Join(dir, name)
		w, closer, err := CreateFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range tr {
			if err := w.WriteAccess(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := closer.Close(); err != nil {
			t.Fatal(err)
		}
		p, err := StreamFileSpans(context.Background(), path, 8, SpanOptions{MemBytes: 1, Kinds: true})
		if err != nil {
			t.Fatal(err)
		}
		spans := collectSpans(t, p)
		sameBlockStream(t, name, ConcatSpans(8, true, spans), want)
	}
	if _, err := StreamFileSpans(context.Background(), filepath.Join(dir, "missing.din"), 8, SpanOptions{}); err == nil {
		t.Fatal("want error for missing file")
	}
}

// TestStreamSpansWeightedOverflow pushes crafted near-MaxUint32 run
// weights through the span pipeline so uint32 saturation splits land at
// span boundaries, and checks the concatenation against the
// run-formation oracle.
func TestStreamSpansWeightedOverflow(t *testing.T) {
	const m = math.MaxUint32
	var ids []uint64
	var runs []uint32
	var kinds []KindRun
	for i := 0; i < 200; i++ {
		ids = append(ids, 9, 9, 5, 9)
		w := uint32(i + 1)
		runs = append(runs, m-3, 7, w, m)
		kinds = append(kinds,
			testKindRun(uint8(i%5), m-3), testKindRun(uint8(i%3), 7),
			testKindRun(uint8(i%4), w), testKindRun(uint8(i%2), m))
	}
	parent, parentK := weightedOracle(4, ids, runs, kinds)

	chunk := func(n int) ([][]uint64, [][]uint32, [][]KindRun) {
		var cids [][]uint64
		var cruns [][]uint32
		var ckinds [][]KindRun
		for i := 0; i < len(ids); i += n {
			end := min(i+n, len(ids))
			cids = append(cids, ids[i:end])
			cruns = append(cruns, runs[i:end])
			ckinds = append(ckinds, kinds[i:end])
		}
		return cids, cruns, ckinds
	}
	for _, chunkN := range []int{1, 3, 64, len(ids)} {
		cids, cruns, ckinds := chunk(chunkN)
		for _, spanRuns := range []int{1, 2, 5, 101} {
			p, err := streamWeightedSpans(context.Background(), 4, SpanOptions{Workers: 3}, spanRuns, cids, cruns, nil)
			if err != nil {
				t.Fatal(err)
			}
			spans := collectSpans(t, p)
			checkSpanInvariants(t, spans)
			label := fmt.Sprintf("chunk=%d spanRuns=%d", chunkN, spanRuns)
			sameBlockStream(t, label, ConcatSpans(4, false, spans), parent)

			pk, err := streamWeightedSpans(context.Background(), 4, SpanOptions{Workers: 3}, spanRuns, cids, cruns, ckinds)
			if err != nil {
				t.Fatal(err)
			}
			kspans := collectSpans(t, pk)
			checkSpanInvariants(t, kspans)
			sameBlockStream(t, label+" kinds", ConcatSpans(4, true, kspans), parentK)
		}
	}
}

func TestStreamSpansCancelAndClose(t *testing.T) {
	defer leakcheck.Check(t)()
	rng := rand.New(rand.NewSource(9))
	tr := pipelineTrace(rng, 50000)

	// Close mid-consumption: the pipeline drains and every goroutine
	// exits; the terminal error is the cancellation.
	p, err := streamSpansWithRuns(context.Background(), tr.NewSliceReader(), 4,
		SpanOptions{MemBytes: 1, Workers: 3}, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range p.Spans() {
		if seen++; seen >= 2 {
			break
		}
	}
	p.Close()
	if err := p.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("closed pipeline error %v, want context.Canceled", err)
	}
	p.Close() // idempotent

	// External context cancellation behaves the same.
	ctx, cancel := context.WithCancel(context.Background())
	p2, err := streamSpansWithRuns(ctx, tr.NewSliceReader(), 4, SpanOptions{MemBytes: 1, Workers: 3}, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	<-p2.Spans()
	cancel()
	for range p2.Spans() {
	}
	if err := p2.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipeline error %v, want context.Canceled", err)
	}
	// A completed pipeline tolerates Close after the fact.
	p3, err := StreamSpans(context.Background(), tr[:100].NewSliceReader(), 4, SpanOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	collectSpans(t, p3)
	p3.Close()
}

// FuzzSpanEquivalence cross-checks streamed spans and the serial
// materialization against the run-formation oracle over fuzzer-chosen
// traces, span sizes, chunk sizes and kind channels — including the
// weighted path whose near-MaxUint32 run weights put uint32 saturation
// splits at span boundaries.
func FuzzSpanEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 200, 200, 200, 7}, uint8(3), uint8(5), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9}, uint8(1), uint8(1), uint8(0))
	f.Add([]byte{255, 254, 253, 1, 1, 1, 40, 40}, uint8(7), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, spanIn, chunkIn, blockIn uint8) {
		spanRuns := int(spanIn%16) + 1
		chunk := int(chunkIn%16) + 1
		block := 1 << (blockIn % 5)
		kinds := blockIn&0x80 != 0
		ctx := context.Background()

		tr := make(Trace, 0, len(data))
		addr := uint64(0)
		for j, b := range data {
			k := Kind((uint64(b) + uint64(j)) % 3)
			if b >= 192 {
				for i := 0; i < int(b-191); i++ {
					tr = append(tr, Access{Addr: addr, Kind: k})
				}
				continue
			}
			addr += uint64(b)
			tr = append(tr, Access{Addr: addr, Kind: k})
		}

		want := oracleOf(tr, block, kinds)
		mat, err := tr.BlockStream(block)
		if kinds {
			mat, err = MaterializeBlockStreamWithKinds(tr.NewSliceReader(), block)
		}
		if err != nil {
			t.Fatal(err)
		}
		sameBlockStream(t, "fuzz materialized", mat, want)
		p, err := streamSpansWithRuns(ctx, tr.NewSliceReader(), block,
			SpanOptions{MemBytes: 1, Workers: 3, Kinds: kinds}, spanRuns, chunk)
		if err != nil {
			t.Fatal(err)
		}
		spans := collectSpans(t, p)
		checkSpanInvariants(t, spans)
		sameBlockStream(t, "fuzz", ConcatSpans(block, kinds, spans), want)

		// Weighted path: byte pairs become (id, near-max weight) runs
		// with crafted kind records, split into chunks.
		var wids []uint64
		var wruns []uint32
		var wkinds []KindRun
		for i := 0; i+1 < len(data); i += 2 {
			w := uint32(data[i+1])
			if w >= 128 {
				w = math.MaxUint32 - uint32(data[i+1]-128)
			}
			wids = append(wids, uint64(data[i]%32))
			wruns = append(wruns, w)
			wkinds = append(wkinds, testKindRun(data[i]/32, w))
		}
		parent, parentK := weightedOracle(block, wids, wruns, wkinds)
		var cids [][]uint64
		var cruns [][]uint32
		ckinds := [][]KindRun{}
		for i := 0; i < len(wids); i += chunk {
			end := min(i+chunk, len(wids))
			cids = append(cids, wids[i:end])
			cruns = append(cruns, wruns[i:end])
			ckinds = append(ckinds, wkinds[i:end])
		}
		pw, err := streamWeightedSpans(ctx, block, SpanOptions{Workers: 3}, spanRuns, cids, cruns, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameBlockStream(t, "fuzz weighted", ConcatSpans(block, false, collectSpans(t, pw)), parent)
		pk, err := streamWeightedSpans(ctx, block, SpanOptions{Workers: 3}, spanRuns, cids, cruns, ckinds)
		if err != nil {
			t.Fatal(err)
		}
		sameBlockStream(t, "fuzz weighted kinds", ConcatSpans(block, true, collectSpans(t, pk)), parentK)
	})
}

// TestStreamRoundTrip: a stream cut into spans and concatenated back is
// the identical stream, on the corners every stream consumer must
// carry: empty streams with and without a kind channel, a single run,
// decoded streams, uint32-overflow run splits (adjacent same-ID runs,
// legal only after a saturated weight) and IDs at the top of the range.
// Span boundaries land everywhere, including inside an overflow split.
func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := make(Trace, 20_000)
	block := uint64(0)
	for i := range tr {
		if rng.Intn(4) == 0 {
			block = uint64(rng.Intn(200))
		}
		tr[i] = Access{Addr: block*64 + uint64(rng.Intn(64)), Kind: Kind(rng.Intn(3))}
	}
	plain, err := MaterializeBlockStream(tr.NewSliceReader(), 64)
	if err != nil {
		t.Fatal(err)
	}
	withKinds, err := MaterializeBlockStreamWithKinds(tr.NewSliceReader(), 64)
	if err != nil {
		t.Fatal(err)
	}
	const m = math.MaxUint32
	cases := map[string]*BlockStream{
		"empty":       {BlockSize: 16},
		"empty-kinds": {BlockSize: 16, Kinds: []KindRun{}},
		"one-run": {BlockSize: 32, IDs: []uint64{42}, Runs: []uint32{3}, Accesses: 3,
			Kinds: []KindRun{{W: [3]uint32{2, 1, 0}, Lead: 1, First: DataRead}}},
		"materialized":       plain,
		"materialized-kinds": withKinds,
		"overflow-split": {BlockSize: 16,
			IDs: []uint64{9, 9, 5}, Runs: []uint32{m, 2, 1}, Accesses: m + 3},
		"overflow-split-kinds": {BlockSize: 16,
			IDs: []uint64{9, 9}, Runs: []uint32{m, 2}, Accesses: m + 2,
			Kinds: []KindRun{
				{W: [3]uint32{m - 1, 1, 0}, Lead: 1, First: DataRead},
				{W: [3]uint32{0, 0, 2}, First: IFetch},
			}},
		"huge-ids": {BlockSize: 1 << 30,
			IDs: []uint64{math.MaxUint64, 0, math.MaxUint64}, Runs: []uint32{1, 1, 1}, Accesses: 3},
	}
	for name, bs := range cases {
		t.Run(name, func(t *testing.T) {
			for _, spanRuns := range []int{1, 2, 7, max(bs.Len(), 1), 0} {
				label := fmt.Sprintf("spanRuns=%d", spanRuns)
				spans := SplitSpans(bs, spanRuns)
				checkSpanInvariants(t, spans)
				got := ConcatSpans(bs.BlockSize, bs.HasKinds(), spans)
				if !reflect.DeepEqual(got, bs) {
					t.Fatalf("%s: round trip is not identity:\ngot  %+v\nwant %+v", label, got, bs)
				}
				if got.HasKinds() != bs.HasKinds() {
					t.Fatalf("%s: kind channel presence flipped: got %v", label, got.HasKinds())
				}
			}
		})
	}
}
