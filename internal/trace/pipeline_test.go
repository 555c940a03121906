package trace

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// serialShards is the oracle: the serial decode → materialize → shard
// path the pipeline must reproduce bit for bit.
func serialShards(t *testing.T, tr Trace, blockSize, log int) *ShardStream {
	t.Helper()
	bs, err := tr.BlockStream(blockSize)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := ShardBlockStream(bs, log)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func sameBlockStream(t *testing.T, label string, got, want *BlockStream) {
	t.Helper()
	if got.BlockSize != want.BlockSize {
		t.Errorf("%s: block size %d, want %d", label, got.BlockSize, want.BlockSize)
	}
	if got.Accesses != want.Accesses {
		t.Errorf("%s: accesses %d, want %d", label, got.Accesses, want.Accesses)
	}
	if len(got.IDs) != len(want.IDs) || len(got.Runs) != len(want.Runs) {
		t.Fatalf("%s: %d ids/%d runs, want %d/%d", label, len(got.IDs), len(got.Runs), len(want.IDs), len(want.Runs))
	}
	for i := range got.IDs {
		if got.IDs[i] != want.IDs[i] || got.Runs[i] != want.Runs[i] {
			t.Fatalf("%s: run %d = (%d, %d), want (%d, %d)", label, i, got.IDs[i], got.Runs[i], want.IDs[i], want.Runs[i])
		}
	}
	if got.HasKinds() != want.HasKinds() {
		t.Fatalf("%s: kind channel present %v, want %v", label, got.HasKinds(), want.HasKinds())
	}
	if want.HasKinds() {
		if len(got.Kinds) != len(got.IDs) || len(want.Kinds) != len(want.IDs) {
			t.Fatalf("%s: kind column length %d/%d, runs %d", label, len(got.Kinds), len(want.Kinds), len(want.IDs))
		}
		for i := range got.Kinds {
			if got.Kinds[i] != want.Kinds[i] {
				t.Fatalf("%s: run %d kinds = %+v, want %+v", label, i, got.Kinds[i], want.Kinds[i])
			}
			if got.Kinds[i].Total() != uint64(got.Runs[i]) {
				t.Fatalf("%s: run %d kind total %d != weight %d", label, i, got.Kinds[i].Total(), got.Runs[i])
			}
		}
	}
}

func sameShardStream(t *testing.T, got, want *ShardStream) {
	t.Helper()
	if got.Log != want.Log || got.BlockSize != want.BlockSize || got.NumShards() != want.NumShards() {
		t.Fatalf("shape: log %d block %d shards %d, want %d/%d/%d",
			got.Log, got.BlockSize, got.NumShards(), want.Log, want.BlockSize, want.NumShards())
	}
	sameBlockStream(t, "source", got.Source, want.Source)
	for s := range want.Shards {
		sameBlockStream(t, fmt.Sprintf("shard %d", s), &got.Shards[s], &want.Shards[s])
	}
}

// pipelineTrace builds a trace with heavy runs and shard skew so edge
// spans, single-span chunks and empty shards all occur.
func pipelineTrace(rng *rand.Rand, n int) Trace {
	tr := make(Trace, 0, n)
	addr := uint64(rng.Intn(1 << 12))
	for len(tr) < n {
		switch rng.Intn(5) {
		case 0: // long sequential run (same block for a while)
			run := rng.Intn(300) + 1
			for i := 0; i < run && len(tr) < n; i++ {
				tr = append(tr, Access{Addr: addr, Kind: IFetch})
				addr++
			}
		case 1: // jump
			addr = uint64(rng.Intn(1 << 14))
			tr = append(tr, Access{Addr: addr, Kind: DataRead})
		case 2: // skew: hammer one block
			run := rng.Intn(64) + 1
			for i := 0; i < run && len(tr) < n; i++ {
				tr = append(tr, Access{Addr: 0x40, Kind: DataRead})
			}
		default:
			addr += uint64(rng.Intn(64))
			tr = append(tr, Access{Addr: addr, Kind: DataWrite})
		}
	}
	return tr
}

// streamDinSpansWith is StreamDinSpans with explicit span and text
// chunk sizes, so chunk cuts land everywhere the geometry clamps would
// avoid.
func streamDinSpansWith(ctx context.Context, r io.Reader, blockSize int, opts SpanOptions, spanRuns, chunkBytes int) (*StreamPipeline, error) {
	p, st, err := newStreamPipeline(blockSize, opts)
	if err != nil {
		return nil, err
	}
	if spanRuns > 0 {
		st.spanRuns = spanRuns
	}
	p.start(ctx, st, spanDinProducer(r, blockSize, opts.Kinds, chunkBytes, p.freeText))
	return p, nil
}

// streamWeightedSpans is the test entry feeding pre-weighted (id, run
// [, kind]) columns through the span pipeline, one chunk per column set
// — the only way to exercise uint32 run-overflow cuts at span
// boundaries without decoding billions of accesses. spanRuns > 0
// overrides the geometry's span size so tests can put boundaries
// anywhere.
func streamWeightedSpans(ctx context.Context, blockSize int, opts SpanOptions, spanRuns int,
	ids [][]uint64, runs [][]uint32, kinds [][]KindRun) (*StreamPipeline, error) {
	opts.Kinds = kinds != nil
	p, st, err := newStreamPipeline(blockSize, opts)
	if err != nil {
		return nil, err
	}
	if spanRuns > 0 {
		st.spanRuns = spanRuns
	}
	p.start(ctx, st, weightedProducer(ids, runs, kinds))
	return p, nil
}

// push appends n accesses of block id (of kind k with the kind
// channel) to b through run formation's step, continuing b's tail run:
// the test entry to the machine every producer runs.
func (b *BlockStream) push(id uint64, k Kind, n uint32) {
	kinds := b.Kinds != nil
	b.close(b.step(b.reopen(), id, k, n, kinds), kinds)
	b.Accesses += uint64(n)
}

// appendKindRun appends a weighted kind run with exactly the per-access
// semantics of single accesses over kr's canonical expansion, one push
// per segment: the weighted producer's step.
func (b *BlockStream) appendKindRun(id uint64, kr KindRun) {
	var buf [5]kindSpan
	for _, sp := range kr.spans(&buf) {
		b.push(id, sp.k, sp.n)
	}
}

// appendKindRun is BlockStream.appendKindRun, recording the head
// span's kinds in kr's canonical order while every access so far is in
// the head and id is its block.
func (c *runChunk) appendKindRun(id uint64, kr KindRun) {
	for k, w := range kr.W {
		c.kindTotals[k] += uint64(w)
	}
	if c.headAcc == c.Accesses && (len(c.IDs) == 0 || c.IDs[0] == id) {
		var buf [5]kindSpan
		for _, sp := range kr.spans(&buf) {
			c.noteHead(sp.k, sp.n)
		}
	}
	c.BlockStream.appendKindRun(id, kr)
}

// weightedProducer emits one chunk job per pre-weighted column set;
// kinds, when non-nil, parallels runs (each record's Total must equal
// its run weight).
func weightedProducer(ids [][]uint64, runs [][]uint32, kinds [][]KindRun) func(emit func(chunkJob), stop func() bool) error {
	return func(emit func(chunkJob), stop func() bool) error {
		for seq := range ids {
			if stop() {
				return nil
			}
			cids, cruns := ids[seq], runs[seq]
			var ckinds []KindRun
			if kinds != nil {
				ckinds = kinds[seq]
			}
			emit(chunkJob{seq: seq, run: func(dst *runChunk) (*runChunk, error) {
				dst.reserve(ckinds != nil, len(cids), len(cids))
				for i := range cids {
					if ckinds != nil {
						dst.appendKindRun(cids[i], ckinds[i])
					} else {
						dst.push(cids[i], 0, cruns[i])
					}
				}
				return dst.finish(), nil
			}})
		}
		return nil
	}
}

// drainSpans materializes a pipeline's spans into one stream, or
// returns nil with the terminal error — the failure contract of every
// decode entry point.
func drainSpans(p *StreamPipeline, err error, blockSize int, kinds bool) (*BlockStream, error) {
	if err != nil {
		return nil, err
	}
	defer p.Close()
	var spans []*Span
	for s := range p.Spans() {
		spans = append(spans, s)
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	return ConcatSpans(blockSize, kinds, spans), nil
}

// appendShardRuns appends src's runs to dst under the shard fill rule:
// merge into the tail when the ID repeats and the summed weight fits
// the uint32 counter.
func appendShardRuns(dst, src *BlockStream) {
	for i, id := range src.IDs {
		w := src.Runs[i]
		dst.Accesses += uint64(w)
		if n := len(dst.IDs) - 1; n >= 0 && dst.IDs[n] == id && uint64(dst.Runs[n])+uint64(w) <= math.MaxUint32 {
			dst.Runs[n] += w
			if dst.Kinds != nil {
				dst.Kinds[n] = mergeKind(dst.Kinds[n], src.Kinds[i])
			}
			continue
		}
		dst.IDs = append(dst.IDs, id)
		dst.Runs = append(dst.Runs, w)
		if dst.Kinds != nil {
			dst.Kinds = append(dst.Kinds, src.Kinds[i])
		}
	}
}

// shardSpans is the sharded span loop the tools run, as a test harness:
// every span is split with ShardBlockStreamInto into one reused
// destination, and each span's shard runs are appended to per-shard
// accumulators under the fill rule. Away from the uint32 limit the
// fill rule is associative, so the accumulated partition equals
// ShardBlockStream over the concatenated stream column for column.
func shardSpans(t *testing.T, spans []*Span, blockSize, log int, kinds bool) *ShardStream {
	t.Helper()
	out := &ShardStream{BlockSize: blockSize, Log: log, Source: ConcatSpans(blockSize, kinds, spans),
		Shards: make([]BlockStream, 1<<log)}
	for i := range out.Shards {
		out.Shards[i].BlockSize = blockSize << log
		if kinds {
			out.Shards[i].Kinds = []KindRun{}
		}
	}
	var part ShardStream
	for _, s := range spans {
		if _, err := ShardBlockStreamInto(&part, &s.BlockStream, log); err != nil {
			t.Fatal(err)
		}
		for i := range part.Shards {
			appendShardRuns(&out.Shards[i], &part.Shards[i])
		}
	}
	return out
}

// run64 is one run of a collapsed access sequence: adjacent same-ID
// runs merged without the uint32 bound, kinds summarized in 64 bits.
type run64 struct {
	id         uint64
	w          uint64
	kw         [3]uint64
	lead       uint64
	first      Kind
	allWritten bool
}

// collapse reduces a stream to its access sequence's canonical form,
// where run splits — at the uint32 limit or at span cuts — no longer
// show: the per-shard invariant sharding must preserve exactly.
func collapse(bs *BlockStream) []run64 {
	var out []run64
	for i, id := range bs.IDs {
		var kr KindRun
		if bs.Kinds != nil {
			kr = bs.Kinds[i]
		}
		n := len(out) - 1
		if n < 0 || out[n].id != id {
			out = append(out, run64{id: id, allWritten: true})
			n++
		}
		r := &out[n]
		r.w += uint64(bs.Runs[i])
		if r.allWritten {
			r.lead += uint64(kr.Lead)
			r.first = kr.First
			r.allWritten = kr.AllWrites()
		}
		for k := range kr.W {
			r.kw[k] += uint64(kr.W[k])
		}
	}
	return out
}

// sameCollapsedShards compares two partitions shard by shard as access
// sequences.
func sameCollapsedShards(t *testing.T, label string, got, want *ShardStream) {
	t.Helper()
	if got.NumShards() != want.NumShards() {
		t.Fatalf("%s: %d shards, want %d", label, got.NumShards(), want.NumShards())
	}
	for i := range want.Shards {
		if g, w := collapse(&got.Shards[i]), collapse(&want.Shards[i]); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: shard %d access sequence differs:\n%v\nvs\n%v", label, i, g, w)
		}
		if got.Shards[i].Accesses != want.Shards[i].Accesses {
			t.Fatalf("%s: shard %d holds %d accesses, want %d", label, i, got.Shards[i].Accesses, want.Shards[i].Accesses)
		}
	}
}

func TestIngestShardsMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for _, n := range []int{0, 1, 5, 1000, 20000} {
		tr := pipelineTrace(rng, n)
		for _, block := range []int{1, 4, 32} {
			for _, log := range []int{0, 1, 3, 5} {
				want := serialShards(t, tr, block, log)
				for _, geo := range [][2]int{{1, 3}, {5, 64}, {0, 4096}} {
					p, err := streamSpansWithRuns(ctx, tr.NewSliceReader(), block, SpanOptions{MemBytes: 1, Workers: 4}, geo[0], geo[1])
					if err != nil {
						t.Fatal(err)
					}
					sameShardStream(t, shardSpans(t, collectSpans(t, p), block, log, false), want)
				}
			}
		}
	}
}

// serialKindShards is the kind-preserving oracle: materialize with
// kinds, then shard.
func serialKindShards(t *testing.T, tr Trace, blockSize, log int) *ShardStream {
	t.Helper()
	bs, err := MaterializeBlockStreamWithKinds(tr.NewSliceReader(), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := ShardBlockStream(bs, log)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func TestIngestShardsWithKindsMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	for _, n := range []int{0, 1, 5, 1000, 20000} {
		tr := pipelineTrace(rng, n)
		for _, block := range []int{1, 4, 32} {
			for _, log := range []int{0, 2, 4} {
				want := serialKindShards(t, tr, block, log)
				// The kind channel is a strict superset: the weight
				// columns must match the kind-free materialization.
				kindFree := serialShards(t, tr, block, log)
				if len(want.Source.IDs) != len(kindFree.Source.IDs) {
					t.Fatalf("kind channel changed run count: %d vs %d", len(want.Source.IDs), len(kindFree.Source.IDs))
				}
				for _, geo := range [][2]int{{1, 3}, {5, 64}, {0, 4096}} {
					p, err := streamSpansWithRuns(ctx, tr.NewSliceReader(), block,
						SpanOptions{MemBytes: 1, Workers: 4, Kinds: true}, geo[0], geo[1])
					if err != nil {
						t.Fatal(err)
					}
					sameShardStream(t, shardSpans(t, collectSpans(t, p), block, log, true), want)
				}
			}
		}
	}
}

// TestPipelineKindTotals: the per-kind totals the decode chunks count
// as they form runs add up to the trace's, through the .din kernel and
// the reader producer alike, over many chunks; without the kind channel
// they are zero.
func TestPipelineKindTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr := pipelineTrace(rng, 20000)
	var want [3]uint64
	for i := range tr {
		tr[i].Kind = Kind(rng.Intn(3))
		want[tr[i].Kind]++
	}
	text := dinText(tr)
	for _, kinds := range []bool{false, true} {
		din, err := streamDinSpansWith(context.Background(), bytes.NewReader(text), 4, SpanOptions{Workers: 3, Kinds: kinds}, 7, 1000)
		if err != nil {
			t.Fatal(err)
		}
		reader, err := streamSpansWithRuns(context.Background(), tr.NewSliceReader(), 4, SpanOptions{Workers: 3, Kinds: kinds}, 7, 1024)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			route string
			p     *StreamPipeline
		}{{"din", din}, {"reader", reader}} {
			for s := range c.p.Spans() {
				c.p.Release(s)
			}
			if err := c.p.Err(); err != nil {
				t.Fatal(err)
			}
			w := want
			if !kinds {
				w = [3]uint64{}
			}
			if got := c.p.KindTotals(); got != w {
				t.Errorf("%s kinds=%v: totals %v, want %v", c.route, kinds, got, w)
			}
		}
	}
}

func TestIngestWithKindsRejectsInvalidKind(t *testing.T) {
	tr := Trace{{Addr: 4, Kind: DataRead}, {Addr: 8, Kind: Kind(7)}}
	p, err := StreamSpans(context.Background(), tr.NewSliceReader(), 4, SpanOptions{Workers: 2, Kinds: true})
	if bs, err := drainSpans(p, err, 4, true); err == nil || bs != nil {
		t.Error("want error (and no stream) for invalid kind on the span path")
	}
	if _, err := MaterializeBlockStreamWithKinds(tr.NewSliceReader(), 4); err == nil {
		t.Error("want error for invalid kind on materialize path")
	}
}

// TestIngestWeightedOverflow drives crafted run weights near the uint32
// limit through the span pipeline and the per-span shard split, with
// chunk and span cuts in every position: the stitched parent must hold
// the exact overflow splits of the serial machine, and every shard the
// exact access subsequence ShardBlockStream gives it (run splits at
// span cuts may differ from the whole-stream fill, which no simulator
// can observe).
func TestIngestWeightedOverflow(t *testing.T) {
	const m = math.MaxUint32
	ids := []uint64{9, 9, 9, 5, 9, 9, 2, 9, 9, 9, 5, 5, 9}
	runs := []uint32{m, m - 3, 7, 1, m - 1, 2, 3, 1, m, 4, m - 2, 10, m}
	var kinds []KindRun
	for i, w := range runs {
		kinds = append(kinds, testKindRun(uint8(i), w))
	}
	ctx := context.Background()
	for log := 0; log <= 3; log++ {
		// Oracle: one serial machine over the whole weighted sequence.
		parent := &BlockStream{BlockSize: 4}
		parentK := &BlockStream{BlockSize: 4, Kinds: []KindRun{}}
		for i := range ids {
			parent.push(ids[i], 0, runs[i])
			parentK.appendKindRun(ids[i], kinds[i])
		}
		for _, withKinds := range []bool{false, true} {
			want, err := ShardBlockStream(parent, log)
			if withKinds {
				want, err = ShardBlockStream(parentK, log)
			}
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut <= len(ids); cut++ {
				var kcols [][]KindRun
				if withKinds {
					kcols = [][]KindRun{kinds[:cut], kinds[cut:]}
				}
				for _, spanRuns := range []int{1, 2, 5} {
					p, err := streamWeightedSpans(ctx, 4, SpanOptions{Workers: 3}, spanRuns,
						[][]uint64{ids[:cut], ids[cut:]}, [][]uint32{runs[:cut], runs[cut:]}, kcols)
					if err != nil {
						t.Fatal(err)
					}
					got := shardSpans(t, collectSpans(t, p), 4, log, withKinds)
					label := fmt.Sprintf("log=%d kinds=%v cut=%d spanRuns=%d", log, withKinds, cut, spanRuns)
					sameBlockStream(t, label, got.Source, want.Source)
					sameCollapsedShards(t, label, got, want)
				}
			}
		}
	}
}

func dinText(tr Trace) []byte {
	var buf bytes.Buffer
	w := NewDinWriter(&buf)
	for _, a := range tr {
		if err := w.WriteAccess(a); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestIngestDinMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := pipelineTrace(rng, 5000)
	text := dinText(tr)
	ctx := context.Background()
	for _, kinds := range []bool{false, true} {
		want := serialShards(t, tr, 16, 2)
		if kinds {
			want = serialKindShards(t, tr, 16, 2)
		}
		for _, chunkBytes := range []int{1, 7, 100, 1 << 12} {
			p, err := streamDinSpansWith(ctx, bytes.NewReader(text), 16, SpanOptions{Workers: 4, Kinds: kinds}, 9, chunkBytes)
			if err != nil {
				t.Fatal(err)
			}
			sameShardStream(t, shardSpans(t, collectSpans(t, p), 16, 2, kinds), want)
		}
	}
}

func TestIngestDinBlankAndPrefixes(t *testing.T) {
	text := "2 0x40\n\n  1   80  trailing junk\n0 a0\n"
	r, err := ReadAll(NewDinReader(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	want := serialShards(t, r, 4, 1)
	p, err := streamDinSpansWith(context.Background(), strings.NewReader(text), 4, SpanOptions{Workers: 2}, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameShardStream(t, shardSpans(t, collectSpans(t, p), 4, 1, false), want)
}

func TestIngestDinErrorLineNumbers(t *testing.T) {
	text := "2 40\n1 80\nbogus line\n2 c0\n"
	p, err := streamDinSpansWith(context.Background(), strings.NewReader(text), 4, SpanOptions{Workers: 2}, 1, 6)
	bs, err := drainSpans(p, err, 4, false)
	if err == nil || bs != nil {
		t.Fatal("want parse error and no stream")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not name line 3", err)
	}
	// The serial reader reports the same line.
	_, serr := MaterializeBlockStream(NewDinReader(strings.NewReader(text)), 4)
	if serr == nil || !strings.Contains(serr.Error(), "line 3") {
		t.Fatalf("serial error %q does not name line 3", serr)
	}
}

func TestIngestFileShards(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := pipelineTrace(rng, 3000)
	want := serialShards(t, tr, 8, 2)
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
		got, err := IngestFileShards(context.Background(), path, 8, 2, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameShardStream(t, got, want)

		gotK, err := IngestFileShardsWithKinds(context.Background(), path, 8, 2, 0)
		if err != nil {
			t.Fatalf("%s with kinds: %v", name, err)
		}
		sameShardStream(t, gotK, serialKindShards(t, tr, 8, 2))
	}

	if _, err := IngestFileShards(context.Background(), filepath.Join(dir, "missing.din"), 8, 2, 0); err == nil {
		t.Fatal("want error for missing file")
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
}

func TestIngestShardsRejectsBadArgs(t *testing.T) {
	tr := Trace{{Addr: 1}}
	if _, err := StreamSpans(context.Background(), tr.NewSliceReader(), 3, SpanOptions{}); err == nil {
		t.Error("want error for non-power-of-two block size")
	}
	bs, err := tr.BlockStream(4)
	if err != nil {
		t.Fatal(err)
	}
	var dst ShardStream
	for _, log := range []int{-1, 23} {
		if _, err := ShardBlockStreamInto(&dst, bs, log); err == nil {
			t.Errorf("want error for shard level %d", log)
		}
		// The file wrapper validates the level before opening anything.
		if _, err := IngestFileShards(context.Background(), "missing.din", 4, log, 1); err == nil || !strings.Contains(err.Error(), "shard level") {
			t.Errorf("level %d: %v, want a shard-level error", log, err)
		}
	}
}

// testKindRun derives a kind record of total weight w from a fuzzer
// selector byte, covering single-kind runs, store-led mixes (Lead > 0)
// and non-store-led mixes.
func testKindRun(sel uint8, w uint32) KindRun {
	var kr KindRun
	if w == 0 {
		return kr
	}
	switch sel % 5 {
	case 0:
		kr.addSpan(DataRead, w)
	case 1:
		kr.addSpan(DataWrite, w)
	case 2:
		kr.addSpan(IFetch, w)
	case 3:
		lead := w / 2
		kr.addSpan(DataWrite, lead)
		if rest := w - lead; rest > 0 {
			kr.addSpan(DataRead, (rest+1)/2)
			kr.addSpan(IFetch, rest/2)
		}
	default:
		h := (w + 1) / 2
		kr.addSpan(IFetch, h)
		kr.addSpan(DataWrite, w-h)
	}
	return kr
}
