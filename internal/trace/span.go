package trace

import (
	"bufio"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"dew/internal/pool"
)

// This file is the back half of the decode pipeline, the one decoder
// every streamed, sharded and materialized-from-file path runs: the
// chunk-parallel decode + boundary-merge stitch of pipeline.go, whose
// stitcher emits the run-compressed stream as a bounded, backpressured
// channel of *spans* — contiguous BlockStream segments a consumer
// replays in order. Decode overlaps with whatever consumes the spans
// (fold, simulation, a shard split, a blob spool), and the pipeline's
// resident state is bounded by a byte budget instead of the trace
// length, so a trace larger than RAM — or an endless feed — streams
// through in O(budget) memory.
//
// # Exactness
//
// Run formation's only mutable state is the tail run (see pipeline.go);
// every run before it is final. The span stitcher therefore always
// withholds the tail run and emits only final runs, cutting spans at
// run boundaries. Concatenating the emitted spans reproduces the
// materialized stream column-for-column — same IDs, same weights, same
// uint32 overflow splits, same kind records — because the cut points
// are exactly the run boundaries materialization would have produced.
// Sequential consumers (the simulators' SimulateStream, fold's carry)
// accumulate across spans, so span-by-span replay is bit-identical to
// one monolithic replay; a sharded consumer splits each span with
// ShardBlockStreamInto and accumulates through SimulateSharded the same
// way.

// Span is one contiguous segment of a run-compressed stream: the
// embedded BlockStream holds final runs only, Start is the access
// offset of the span's first access within the full stream, and Seq
// numbers spans from 0. Spans arrive in order and their concatenation
// is bit-identical to the materialized stream.
type Span struct {
	BlockStream
	Start uint64
	Seq   int
}

// DefaultSpanMemBytes is the pipeline's resident-byte budget when
// SpanOptions.MemBytes is zero — the budget of every sharded replay
// not given one. Measured against 64 MiB on a 2-CPU Xeon host over a
// 2M-access CJPEG .din, 8 MiB ran faster and peaked lower for both
// sharded tools: refsim wt/nwa -shards 2 0.22 s / 29 MiB RSS vs
// 0.25 s / 89 MiB, dewsim -blocks 4,16,64 -shards 2 0.53 s / 45 MiB vs
// 0.58 s / 101 MiB.
const DefaultSpanMemBytes = 8 << 20

// spanChanCap bounds the spans buffered between stitcher and consumer:
// enough to keep decode ahead of the replay loop, small enough that the
// channel never holds a meaningful share of the budget.
const spanChanCap = 2

// SpanOptions configures a span pipeline.
type SpanOptions struct {
	// MemBytes bounds the pipeline's resident bytes — buffered spans,
	// the pending tail, and in-flight decode chunks; 0 means
	// DefaultSpanMemBytes. The bound is a working-set target, not a hard
	// allocator cap: tiny budgets are clamped to the minimum workable
	// chunk and span sizes (see ResidentBound for the resolved figure).
	MemBytes int64
	// Workers bounds the decode/compress goroutines; <= 0 means
	// GOMAXPROCS.
	Workers int
	// Kinds selects the kind-preserving channel on every span.
	Kinds bool
	// CheckpointEvery requests a DCP1 checkpoint roughly every that many
	// accesses, delivered at span boundaries; 0 disables checkpoints.
	CheckpointEvery uint64
	// Checkpoint receives each periodic checkpoint, synchronously on the
	// stitcher goroutine between span emissions: when it is called,
	// every span covering accesses before the checkpoint's pending tail
	// has already been emitted. A non-nil error aborts the pipeline.
	// Resume with ResumeStreamSpans.
	Checkpoint func(*Checkpoint) error
}

// StreamPipeline is a running span pipeline. Consume Spans until the
// channel closes, then check Err; Close abandons the pipeline early
// (cancel + drain) and is safe to defer alongside normal consumption.
type StreamPipeline struct {
	spans  chan *Span
	done   chan struct{}
	cancel context.CancelFunc
	err    error
	closer io.Closer

	memBytes int64
	resident int64
	spanRuns int
	chunkAcc int
	workers  int

	spansOut atomic.Uint64
	accOut   atomic.Uint64
}

// Spans returns the ordered span channel; it closes when the input is
// exhausted, the context is cancelled, or the pipeline fails.
func (p *StreamPipeline) Spans() <-chan *Span { return p.spans }

// Err blocks until the pipeline has fully stopped and returns its
// terminal error: nil after a complete stream, the context's error
// after cancellation, or the decode/stitch failure.
func (p *StreamPipeline) Err() error {
	<-p.done
	return p.err
}

// Close abandons the pipeline: it cancels the producer, drains the span
// channel, and waits for every pipeline goroutine to exit. Safe after
// normal completion and safe to call more than once.
func (p *StreamPipeline) Close() {
	p.cancel()
	for range p.spans {
	}
	<-p.done
}

// MemBytes returns the resolved resident-byte budget.
func (p *StreamPipeline) MemBytes() int64 { return p.memBytes }

// ResidentBound returns the pipeline's worst-case resident bytes under
// the resolved geometry: every bufferable span live at once plus every
// worker's in-flight decode chunk. This is the figure provenance
// reports as "peak resident".
func (p *StreamPipeline) ResidentBound() int64 { return p.resident }

// EmittedSpans returns the spans emitted so far (final once Err
// returns).
func (p *StreamPipeline) EmittedSpans() uint64 { return p.spansOut.Load() }

// EmittedAccesses returns the accesses covered by emitted spans.
func (p *StreamPipeline) EmittedAccesses() uint64 { return p.accOut.Load() }

// bytesPerSpanRun estimates the resident cost of one buffered run.
func bytesPerSpanRun(kinds bool) int64 {
	if kinds {
		return 8 + 4 + 20 // id + weight + KindRun
	}
	return 8 + 4
}

// spanGeometry resolves the budget into span and chunk sizes: half the
// budget to buffered spans, half to in-flight decode chunks, both
// clamped to workable minima so a tiny budget degrades to small spans
// instead of failing. workers must already be resolved.
func spanGeometry(memBytes int64, workers int, kinds bool) (spanRuns, chunkAcc int, resident int64) {
	bpr := bytesPerSpanRun(kinds)
	// Buffered spans: chanCap in the channel, one being built in the
	// pending tail, one held by the consumer, one in flight.
	liveSpans := int64(spanChanCap + 3)
	spanRuns = int(memBytes / 2 / (bpr * liveSpans))
	spanRuns = max(256, min(spanRuns, 1<<22))
	// In-flight chunks: one per worker plus one queued and one being
	// produced; each costs the raw accesses (16 B) plus worst-case
	// run-compressed columns.
	perAcc := int64(16) + bpr
	liveChunks := int64(workers + 2)
	chunkAcc = int(memBytes / 2 / (perAcc * liveChunks))
	chunkAcc = max(1024, min(chunkAcc, defaultChunkAcc))
	resident = liveSpans*int64(spanRuns)*bpr + liveChunks*int64(chunkAcc)*perAcc
	return spanRuns, chunkAcc, resident
}

// spanStitcher consumes runChunks in stream order, maintains the
// pending tail stream, and emits final runs as spans.
type spanStitcher struct {
	pend     BlockStream // pending runs; only the last is mutable
	start    uint64      // access offset of pend's first access
	seq      int
	spanRuns int
	kinds    bool
	emit     func(*Span) error

	ckEvery uint64
	ckFn    func(*Checkpoint) error
	lastCk  uint64
}

// add appends one chunk in stream order: chunk edges replay through the
// per-access tail machine, the interior — final regardless of its
// neighbours — bulk-appends (see pipeline.go).
func (st *spanStitcher) add(c *runChunk) error {
	p := &st.pend
	appendEdge := func(i int) {
		if st.kinds {
			p.appendKindRun(c.ids[i], c.kinds[i])
		} else {
			p.appendRun(c.ids[i], c.runs[i])
		}
	}
	for i := 0; i < c.head; i++ {
		appendEdge(i)
	}
	if c.tail > c.head {
		p.IDs = append(p.IDs, c.ids[c.head:c.tail]...)
		p.Runs = append(p.Runs, c.runs[c.head:c.tail]...)
		if st.kinds {
			p.Kinds = append(p.Kinds, c.kinds[c.head:c.tail]...)
		}
		for _, w := range c.runs[c.head:c.tail] {
			p.Accesses += uint64(w)
		}
	}
	for i := max(c.tail, c.head); i < len(c.ids); i++ {
		appendEdge(i)
	}
	return st.flush(false)
}

// flush emits spans of up to spanRuns final runs. While the stream may
// continue the mutable tail run is withheld; finish passes final to
// drain everything.
func (st *spanStitcher) flush(final bool) error {
	for {
		avail := len(st.pend.IDs)
		if !final {
			avail-- // the tail run may still grow
		}
		if avail <= 0 || (!final && avail < st.spanRuns) {
			break
		}
		if err := st.emitSpan(min(avail, st.spanRuns)); err != nil {
			return err
		}
	}
	return st.maybeCheckpoint()
}

// emitSpan cuts the first n (final) pending runs into a Span and
// compacts the pending tail.
func (st *spanStitcher) emitSpan(n int) error {
	s := &Span{Seq: st.seq, Start: st.start}
	s.BlockStream = BlockStream{
		BlockSize: st.pend.BlockSize,
		IDs:       append([]uint64(nil), st.pend.IDs[:n]...),
		Runs:      append([]uint32(nil), st.pend.Runs[:n]...),
	}
	if st.kinds {
		s.Kinds = append([]KindRun(nil), st.pend.Kinds[:n]...)
	}
	for _, w := range s.Runs {
		s.Accesses += uint64(w)
	}
	m := copy(st.pend.IDs, st.pend.IDs[n:])
	st.pend.IDs = st.pend.IDs[:m]
	copy(st.pend.Runs, st.pend.Runs[n:])
	st.pend.Runs = st.pend.Runs[:m]
	if st.kinds {
		copy(st.pend.Kinds, st.pend.Kinds[n:])
		st.pend.Kinds = st.pend.Kinds[:m]
	}
	st.pend.Accesses -= s.Accesses
	st.start += s.Accesses
	st.seq++
	return st.emit(s)
}

// maybeCheckpoint delivers a DCP1 checkpoint once CheckpointEvery
// accesses have been consumed since the last one.
func (st *spanStitcher) maybeCheckpoint() error {
	if st.ckFn == nil || st.ckEvery == 0 {
		return nil
	}
	consumed := st.start + st.pend.Accesses
	if consumed-st.lastCk < st.ckEvery {
		return nil
	}
	st.lastCk = consumed
	return st.ckFn(st.checkpoint())
}

// checkpoint snapshots the pipeline position as a DCP1 checkpoint: its
// source holds only the pending tail runs while its access count covers
// everything consumed so far — Accesses() is the resume read position
// (the emitted prefix is deliberately absent; see ResumeStreamSpans).
func (st *spanStitcher) checkpoint() *Checkpoint {
	src := cloneStream(&st.pend)
	src.Accesses = st.start + st.pend.Accesses
	return &Checkpoint{blockSize: st.pend.BlockSize, kinds: st.kinds, source: src}
}

// newStreamPipeline validates geometry and builds the pipeline shell
// and its stitcher.
func newStreamPipeline(blockSize int, opts SpanOptions) (*StreamPipeline, *spanStitcher, error) {
	if blockSize < 1 || blockSize&(blockSize-1) != 0 {
		return nil, nil, fmt.Errorf("trace: block size must be a positive power of two, got %d", blockSize)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	memBytes := opts.MemBytes
	if memBytes <= 0 {
		memBytes = DefaultSpanMemBytes
	}
	spanRuns, chunkAcc, resident := spanGeometry(memBytes, workers, opts.Kinds)
	p := &StreamPipeline{
		spans:    make(chan *Span, spanChanCap),
		done:     make(chan struct{}),
		memBytes: memBytes,
		resident: resident,
		spanRuns: spanRuns,
		chunkAcc: chunkAcc,
		workers:  workers,
	}
	st := &spanStitcher{
		pend:     BlockStream{BlockSize: blockSize},
		spanRuns: spanRuns,
		kinds:    opts.Kinds,
		ckEvery:  opts.CheckpointEvery,
		ckFn:     opts.Checkpoint,
	}
	if opts.Kinds {
		st.pend.Kinds = []KindRun{}
	}
	return p, st, nil
}

// start launches the pipeline goroutines: produce → compress workers →
// ordered stitch, with the stitch on its own goroutine emitting spans
// under backpressure. Every goroutine
// body runs under pool.Protect — a panic anywhere surfaces as the
// pipeline's terminal *pool.PanicError, never a crash — and the driver
// never exits with pipeline goroutines still live.
func (p *StreamPipeline) start(ctx context.Context, st *spanStitcher,
	produce func(emit func(chunkJob), stop func() bool) error) {
	ctx, p.cancel = context.WithCancel(ctx)
	st.emit = func(s *Span) error {
		select {
		case p.spans <- s:
			p.spansOut.Add(1)
			p.accOut.Add(s.Accesses)
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	jobs := make(chan chunkJob, p.workers)
	results := make(chan chunkResult, p.workers)
	var abort atomic.Bool
	stop := func() bool { return abort.Load() || ctx.Err() != nil }

	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				var c *runChunk
				err := pool.Protect(func() error {
					var err error
					c, err = j.run()
					return err
				})
				results <- chunkResult{seq: j.seq, chunk: c, err: err}
			}
		}()
	}
	prodErr := make(chan error, 1)
	go func() {
		err := pool.Protect(func() error {
			return produce(func(j chunkJob) { jobs <- j }, stop)
		})
		close(jobs)
		prodErr <- err
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	closer := p.closer
	go func() {
		defer close(p.done)
		defer close(p.spans)
		if closer != nil {
			defer closer.Close()
		}
		// Ordered stitch: chunks apply strictly in seq order, so the
		// emitted spans are always an exact prefix of the input at a run
		// boundary.
		pending := map[int]*runChunk{}
		next := 0
		var firstErr error
		for res := range results {
			if firstErr != nil {
				continue // drain
			}
			if res.err != nil {
				firstErr = res.err
				abort.Store(true)
				continue
			}
			pending[res.seq] = res.chunk
			if err := pool.Protect(func() error {
				for {
					c, ok := pending[next]
					if !ok {
						return nil
					}
					delete(pending, next)
					if err := st.add(c); err != nil {
						return err
					}
					next++
				}
			}); err != nil {
				firstErr = err
				abort.Store(true)
			}
		}
		if err := <-prodErr; err != nil && firstErr == nil {
			firstErr = err
		}
		if firstErr == nil {
			firstErr = ctx.Err()
		}
		if firstErr == nil {
			firstErr = pool.Protect(func() error { return st.flush(true) })
		}
		p.err = firstErr
	}()
}

// StreamSpans starts a span pipeline over a generic trace reader at the
// given block size: decode and run compression proceed chunk-parallel
// while the caller consumes spans. Cancelling ctx (or Close) stops the
// pipeline at chunk granularity with every goroutine drained.
func StreamSpans(ctx context.Context, r Reader, blockSize int, opts SpanOptions) (*StreamPipeline, error) {
	p, st, err := newStreamPipeline(blockSize, opts)
	if err != nil {
		return nil, err
	}
	p.start(ctx, st, spanReaderProducer(r, blockSize, opts.Kinds, p.chunkAcc))
	return p, nil
}

// spanReaderProducer emits chunk jobs from a batched access reader.
func spanReaderProducer(r Reader, blockSize int, kinds bool, chunkSize int) func(emit func(chunkJob), stop func() bool) error {
	off := blockShift(blockSize)
	return func(emit func(chunkJob), stop func() bool) error {
		br := Batch(r)
		seq := 0
		for !stop() {
			buf := make([]Access, chunkSize)
			filled := 0
			var err error
			for filled < chunkSize {
				var n int
				n, err = br.ReadBatch(buf[filled:])
				filled += n
				if err != nil {
					break
				}
			}
			if filled > 0 {
				accs := buf[:filled]
				emit(chunkJob{seq: seq, run: func() (*runChunk, error) {
					cc := &chunkCompressor{kinds: kinds}
					if kinds {
						for _, a := range accs {
							if !a.Kind.Valid() {
								return nil, fmt.Errorf("trace: invalid access kind %v at address %#x", a.Kind, a.Addr)
							}
							cc.addAccess(a.Addr>>off, a.Kind)
						}
					} else {
						for _, a := range accs {
							cc.add(a.Addr>>off, 1)
						}
					}
					return cc.finish(), nil
				}})
				seq++
			}
			if err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
		}
		return nil
	}
}

// StreamDinSpans starts a span pipeline over Dinero .din text, with the
// text decode itself chunk-parallel: the producer cuts the byte stream
// at line boundaries and workers parse and run-compress each chunk
// independently. Semantics (including error line numbers) match
// NewDinReader.
func StreamDinSpans(ctx context.Context, r io.Reader, blockSize int, opts SpanOptions) (*StreamPipeline, error) {
	p, st, err := newStreamPipeline(blockSize, opts)
	if err != nil {
		return nil, err
	}
	p.startDin(ctx, st, r, blockSize, opts.Kinds)
	return p, nil
}

// startDin starts the .din text producer over r. The text chunks scale
// with the budget: a .din line is ≥ 8 bytes per access, so the access
// geometry bounds the byte geometry.
func (p *StreamPipeline) startDin(ctx context.Context, st *spanStitcher, r io.Reader, blockSize int, kinds bool) {
	chunkBytes := max(64<<10, min(p.chunkAcc*16, dinChunkBytes))
	p.start(ctx, st, spanDinProducer(r, blockSize, kinds, chunkBytes))
}

// spanDinProducer emits .din text chunks cut at line boundaries.
func spanDinProducer(r io.Reader, blockSize int, kinds bool, chunkBytes int) func(emit func(chunkJob), stop func() bool) error {
	off := blockShift(blockSize)
	return func(emit func(chunkJob), stop func() bool) error {
		var rem []byte
		seq := 0
		startLine := 1
		emitChunk := func(b []byte) {
			lines := countNewlines(b)
			base := startLine
			startLine += lines
			emit(chunkJob{seq: seq, run: func() (*runChunk, error) {
				return parseDinChunk(b, base, off, kinds)
			}})
			seq++
		}
		for !stop() {
			buf := make([]byte, len(rem)+chunkBytes)
			copy(buf, rem)
			n, err := io.ReadFull(r, buf[len(rem):])
			buf = buf[:len(rem)+n]
			rem = nil
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					return err
				}
				if len(buf) > 0 {
					emitChunk(buf)
				}
				return nil
			}
			cut := lastNewline(buf)
			if cut < 0 {
				// No line boundary yet (pathological line longer than
				// the chunk): keep accumulating.
				rem = buf
				continue
			}
			emitChunk(buf[:cut+1])
			rem = append([]byte(nil), buf[cut+1:]...)
		}
		return nil
	}
}

func countNewlines(b []byte) int {
	n := 0
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}

func lastNewline(b []byte) int {
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] == '\n' {
			return i
		}
	}
	return -1
}

// StreamFileSpans starts a span pipeline over a trace file,
// transparently decompressing ".gz" and dispatching .din text to the
// parallel text parser. The pipeline closes the file when it stops.
func StreamFileSpans(ctx context.Context, name string, blockSize int, opts SpanOptions) (*StreamPipeline, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	var src io.Reader = f
	closer := io.Closer(f)
	if strings.HasSuffix(name, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("trace: opening %s: %w", name, err)
		}
		src = gz
		closer = multiCloser{gz, f}
	}
	p, st, err := newStreamPipeline(blockSize, opts)
	if err != nil {
		closer.Close()
		return nil, err
	}
	p.closer = closer
	if DetectFormat(name) == FormatBin {
		p.start(ctx, st, spanReaderProducer(NewBinReader(bufio.NewReader(src)), blockSize, opts.Kinds, p.chunkAcc))
	} else {
		p.startDin(ctx, st, src, blockSize, opts.Kinds)
	}
	return p, nil
}

// ResumeStreamSpans restarts a span pipeline from a checkpoint taken by
// SpanOptions.Checkpoint: the caller re-positions r at cp.Accesses()
// (SkipAccesses) and the pipeline
// continues emitting spans from the checkpoint's pending tail — the
// concatenation of the spans emitted before the checkpoint and the
// spans emitted after the resume is bit-identical to an uninterrupted
// pipeline, uint32 overflow splits and kind merges at the cut included.
func ResumeStreamSpans(ctx context.Context, cp *Checkpoint, r Reader, opts SpanOptions) (*StreamPipeline, error) {
	p, st, err := resumePipeline(cp, opts)
	if err != nil {
		return nil, err
	}
	p.start(ctx, st, spanReaderProducer(r, cp.blockSize, cp.kinds, p.chunkAcc))
	return p, nil
}

// resumePipeline builds a pipeline shell whose stitcher continues from
// cp's pending tail and position.
func resumePipeline(cp *Checkpoint, opts SpanOptions) (*StreamPipeline, *spanStitcher, error) {
	pendAcc, err := cp.pending()
	if err != nil {
		return nil, nil, err
	}
	opts.Kinds = cp.kinds
	p, st, err := newStreamPipeline(cp.blockSize, opts)
	if err != nil {
		return nil, nil, err
	}
	st.pend = cloneStream(&cp.source)
	st.pend.Accesses = pendAcc
	st.start = cp.source.Accesses - pendAcc
	st.lastCk = cp.source.Accesses
	return p, st, nil
}

// ConcatSpans materializes spans back into one stream. It is the test
// oracle: span-pipeline tests replay its result as the monolithic
// stream the spans must reproduce.
func ConcatSpans(blockSize int, kinds bool, spans []*Span) *BlockStream {
	bs := &BlockStream{BlockSize: blockSize}
	if kinds {
		bs.Kinds = []KindRun{}
	}
	for _, s := range spans {
		bs.appendSpan(&s.BlockStream)
	}
	return bs
}

// SplitSpans is ConcatSpans' inverse for an already materialized
// stream: it cuts bs into consecutive spans of at most spanRuns runs
// each, sharing bs's columns (nothing is copied). spanRuns ≤ 0 means
// the span size a pipeline at DefaultSpanMemBytes emits, so a stream
// loaded whole (an artifact-cache hit) feeds a span consumer — a
// per-span shard split, say — in the same slices the decode would have
// delivered.
func SplitSpans(bs *BlockStream, spanRuns int) []*Span {
	if spanRuns <= 0 {
		spanRuns, _, _ = spanGeometry(DefaultSpanMemBytes, 1, bs.HasKinds())
	}
	var spans []*Span
	var start uint64
	for lo := 0; lo < bs.Len(); lo += spanRuns {
		hi := min(lo+spanRuns, bs.Len())
		s := &Span{Seq: len(spans), Start: start}
		s.BlockSize = bs.BlockSize
		s.IDs, s.Runs = bs.IDs[lo:hi:hi], bs.Runs[lo:hi:hi]
		if bs.Kinds != nil {
			s.Kinds = bs.Kinds[lo:hi:hi]
		}
		for _, w := range s.Runs {
			s.Accesses += uint64(w)
		}
		start += s.Accesses
		spans = append(spans, s)
	}
	return spans
}
