package trace

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dew/internal/leakcheck"
	"dew/internal/pool"
)

// cancelReader serves a trace and fires cancel once n accesses have
// been read — a deterministic mid-stream cancellation.
type cancelReader struct {
	r      Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelReader) Next() (Access, error) {
	if c.n == 0 {
		c.cancel()
	}
	c.n--
	return c.r.Next()
}

// seededTrace builds a run-heavy trace whose shape exercises chunk
// edges and kind merges around arbitrary cut points.
func seededTrace(seed uint64, n int) Trace {
	rng := rand.New(rand.NewSource(int64(seed)))
	return pipelineTrace(rng, n)
}

// TestIngestCancelMidStream cancels a sharded span loop mid-stream: the
// pipeline drains (no leaked goroutines) with context.Canceled, and
// what it emitted before stopping is an exact run-boundary prefix of
// the uninterrupted stream.
func TestIngestCancelMidStream(t *testing.T) {
	defer leakcheck.Check(t)()
	const n = 20000
	tr := seededTrace(7, n)
	want, err := tr.BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The pipeline holds at most a few chunks in flight between reader
	// and stitcher, so cancelling at 15000 of 20000 accesses always
	// lands after several spans and before the end.
	r := &cancelReader{r: tr.NewSliceReader(), n: 15000, cancel: cancel}
	p, err := streamSpansWithRuns(ctx, r, 16, SpanOptions{MemBytes: 1, Workers: 4}, 16, 256)
	if err != nil {
		t.Fatal(err)
	}
	var spans []*Span
	var part ShardStream
	for s := range p.Spans() {
		// The tools' sharded loop: split each span as it arrives.
		if _, err := ShardBlockStreamInto(&part, &s.BlockStream, 2); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := p.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipeline returned %v, want context.Canceled", err)
	}
	if p.EmittedAccesses() >= n {
		t.Fatalf("cancelled pipeline emitted all %d accesses", n)
	}
	got := ConcatSpans(16, false, spans)
	m := got.Len()
	if m == 0 {
		t.Fatal("no span before the cancellation")
	}
	want.IDs, want.Runs, want.Accesses = want.IDs[:m], want.Runs[:m], got.Accesses
	sameBlockStream(t, "cancelled prefix", got, want)
}

func TestIngestCancelBeforeStart(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := StreamSpans(ctx, seededTrace(1, 100).NewSliceReader(), 16, SpanOptions{Workers: 2})
	bs, err := drainSpans(p, err, 16, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if bs != nil {
		t.Error("cancelled pipeline returned a partial stream")
	}
}

// cancelByteReader cancels once n bytes have been served — the .din
// text pipeline's mid-stream cancellation.
type cancelByteReader struct {
	r      *strings.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelByteReader) Read(p []byte) (int, error) {
	if c.n <= 0 {
		c.cancel()
	}
	k, err := c.r.Read(p)
	c.n -= k
	return k, err
}

func TestIngestDinCancelMidStream(t *testing.T) {
	defer leakcheck.Check(t)()
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		sb.WriteString("0 ")
		sb.WriteString([]string{"1000", "1004", "2000"}[i%3])
		sb.WriteString("\n")
	}
	text := sb.String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &cancelByteReader{r: strings.NewReader(text), n: len(text) / 3, cancel: cancel}
	p, err := streamDinSpansWith(ctx, r, 16, SpanOptions{Workers: 4}, 4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var part ShardStream
	for s := range p.Spans() {
		if _, err := ShardBlockStreamInto(&part, &s.BlockStream, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled din pipeline returned %v, want context.Canceled", err)
	}
	if p.EmittedAccesses() >= 20000 {
		t.Errorf("cancelled din pipeline emitted %d accesses", p.EmittedAccesses())
	}
}

// panicAccessReader panics after serving n accesses — a crash inside
// the decode producer.
type panicAccessReader struct{ n int }

func (p *panicAccessReader) Next() (Access, error) {
	if p.n <= 0 {
		panic("reader exploded")
	}
	p.n--
	return Access{Addr: uint64(p.n) * 16, Kind: DataRead}, nil
}

func TestIngestProducerPanic(t *testing.T) {
	defer leakcheck.Check(t)()
	p, err := StreamSpans(context.Background(), &panicAccessReader{n: 1000}, 16, SpanOptions{Workers: 3})
	bs, err := drainSpans(p, err, 16, false)
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *pool.PanicError", err)
	}
	if pe.Value != "reader exploded" || len(pe.Stack) == 0 {
		t.Errorf("PanicError carries %v with %d stack bytes", pe.Value, len(pe.Stack))
	}
	if bs != nil {
		t.Error("panicked pipeline returned a partial stream")
	}
}

// startWith runs a pipeline whose producer emits the given chunk jobs.
func startWith(t *testing.T, kinds bool, jobs ...func() (*runChunk, error)) *StreamPipeline {
	t.Helper()
	p, st, err := newStreamPipeline(16, SpanOptions{Workers: 2, Kinds: kinds})
	if err != nil {
		t.Fatal(err)
	}
	p.start(context.Background(), st, func(emit func(chunkJob), stop func() bool) error {
		for seq, run := range jobs {
			emit(chunkJob{seq: seq, run: func(*runChunk) (*runChunk, error) { return run() }})
		}
		return nil
	})
	return p
}

func TestIngestWorkerPanic(t *testing.T) {
	defer leakcheck.Check(t)()
	p := startWith(t, false, func() (*runChunk, error) { panic("worker exploded") })
	for range p.Spans() {
	}
	var pe *pool.PanicError
	if err := p.Err(); !errors.As(err, &pe) || pe.Value != "worker exploded" {
		t.Fatalf("err = %v, want the worker's *pool.PanicError", err)
	}
	p.Close()
}

// TestIngestStitcherPanicPoisons: a stitcher panic tears mid-chunk
// state, so the pipeline must stop for good — the panic is its terminal
// error and no span follows it.
func TestIngestStitcherPanicPoisons(t *testing.T) {
	defer leakcheck.Check(t)()
	// A chunk whose head claims more runs than it holds makes the
	// stitcher slice out of range mid-apply; the well-formed chunk after
	// it must never surface.
	torn := func() (*runChunk, error) {
		return &runChunk{BlockStream: BlockStream{IDs: []uint64{1}, Runs: []uint32{1}, Accesses: 1}, head: 2}, nil
	}
	fine := func() (*runChunk, error) {
		batch := make([]Access, 1000)
		for i := range batch {
			batch[i] = Access{Addr: uint64(i), Kind: DataRead}
		}
		c := &runChunk{}
		c.reserve(true, len(batch), len(batch))
		if err := c.appendAccesses(batch, 0); err != nil {
			return nil, err
		}
		return c.finish(), nil
	}
	p := startWith(t, true, torn, fine)
	spans := 0
	for range p.Spans() {
		spans++
	}
	var pe *pool.PanicError
	if err := p.Err(); !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *pool.PanicError", err)
	}
	if spans != 0 || p.EmittedAccesses() != 0 {
		t.Errorf("poisoned pipeline emitted %d spans (%d accesses)", spans, p.EmittedAccesses())
	}
	p.Close()
}
