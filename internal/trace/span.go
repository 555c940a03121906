package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
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
//
// A span a pipeline emits is leased to its consumer: it stays intact
// until the consumer hands it back with StreamPipeline.Release, after
// which the pipeline refills its columns for a later span. A consumer
// that never releases keeps every span it received.
type Span struct {
	BlockStream
	Start uint64
	Seq   int

	owner *StreamPipeline // the pipeline that may reuse it; nil once released
}

// DefaultSpanMemBytes is the pipeline's resident-byte budget when
// SpanOptions.MemBytes is zero — the budget of every sharded replay
// not given one. Measured against 64 MiB on a 2-CPU Xeon host over a
// 2M-access CJPEG .din (medians of 5 alternating runs, with the
// consumers releasing their spans), 8 MiB ran faster and peaked lower
// for both sharded tools: refsim wt/nwa -shards 2 0.17 s / 16 MiB RSS
// vs 0.23 s / 56 MiB, dewsim -blocks 4,16,64 -shards 2 0.46 s / 27 MiB
// vs 0.54 s / 116 MiB.
const DefaultSpanMemBytes = 8 << 20

// spanChanCap bounds the spans buffered between stitcher and consumer:
// enough to keep decode ahead of the replay loop, small enough that the
// channel never holds a meaningful share of the budget.
const spanChanCap = 2

// liveSpans is the number of spans the geometry charges: spanChanCap
// in the channel, one being built in the pending tail, one held by the
// consumer, one in flight.
const liveSpans = spanChanCap + 3

// liveChunks is the number of decode chunks the geometry charges: one
// per worker plus one queued and one being produced.
func liveChunks(workers int) int { return workers + 2 }

// SpanOptions configures a span pipeline.
type SpanOptions struct {
	// MemBytes is the pipeline's working-set budget — buffered spans,
	// the pending tail, and in-flight decode chunks; 0 means
	// DefaultSpanMemBytes. It sizes the geometry (spans, chunks and the
	// free lists that recycle them), not a hard allocator cap: tiny
	// budgets are clamped to the minimum workable chunk and span sizes,
	// and a consumer that holds spans without releasing them keeps them
	// alive past it (see ResidentBound for the resolved figure).
	MemBytes int64
	// Workers bounds the decode/compress goroutines; <= 0 means
	// GOMAXPROCS.
	Workers int
	// Kinds selects the kind-preserving channel on every span.
	Kinds bool
}

// StreamPipeline is a running span pipeline. Consume Spans until the
// channel closes, then check Err; Close abandons the pipeline early
// (cancel + drain) and is safe to defer alongside normal consumption.
//
// Every buffer the pipeline allocates has one owner at a time and goes
// back to a per-pipeline free list once its last reader is done: input
// buffers after their chunk is compressed, run chunks after the stitch,
// spans after the consumer's Release. Each list is bounded by the
// geometry's counts (liveChunks input buffers and run chunks, liveSpans
// spans), so what the lists park is charged in ResidentBound and the
// heap tracks the live working set instead of its garbage.
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

	freeSpans  freeList[*Span]
	freeChunks freeList[*runChunk]

	spansOut atomic.Uint64
	accOut   atomic.Uint64
}

// freeList is a bounded list of released buffers. put never blocks and
// drops a buffer the list has no room for; get returns the zero value
// (a nil buffer) when the list is empty. The channel is never closed,
// so both stay safe after the pipeline stops.
type freeList[T any] chan T

func (f freeList[T]) get() T {
	select {
	case v := <-f:
		return v
	default:
		var zero T
		return zero
	}
}

func (f freeList[T]) put(v T) {
	select {
	case f <- v:
	default:
	}
}

// Spans returns the ordered span channel; it closes when the input is
// exhausted, the context is cancelled, or the pipeline fails. Each span
// received is the consumer's until it passes the span to Release.
func (p *StreamPipeline) Spans() <-chan *Span { return p.spans }

// Release hands a span back to the pipeline once the consumer has
// finished reading it; the pipeline may then overwrite its columns for
// a later span. Release never blocks and is safe after Close. Spans the
// pipeline did not emit (SplitSpans views, say) and spans already
// released are ignored; a span must not be read after its release.
func (p *StreamPipeline) Release(s *Span) {
	if s != nil && s.owner == p {
		s.owner = nil
		p.freeSpans.put(s)
	}
}

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
// in-flight decode chunk. The free lists park no more than those same
// counts, so the figure covers every buffer the pipeline holds; spans a
// consumer keeps without releasing are its own. This is the figure
// provenance reports as "peak resident".
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
	spanRuns = int(memBytes / 2 / (bpr * liveSpans))
	spanRuns = max(256, min(spanRuns, 1<<22))
	// Each chunk costs the raw accesses (16 B) plus worst-case
	// run-compressed columns.
	perAcc := int64(16) + bpr
	chunks := int64(liveChunks(workers))
	chunkAcc = int(memBytes / 2 / (perAcc * chunks))
	chunkAcc = max(1024, min(chunkAcc, defaultChunkAcc))
	resident = liveSpans*int64(spanRuns)*bpr + chunks*int64(chunkAcc)*perAcc
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
	owner    *StreamPipeline // recycles released spans
	emit     func(*Span) error
}

// add appends one chunk in stream order: the head replays through the
// serial machine, the runs after it — final regardless of their
// neighbours — bulk-append (see pipeline.go).
func (st *spanStitcher) add(c *runChunk) error {
	p := &st.pend
	if st.kinds {
		for _, sp := range c.headKinds {
			p.appendKindSpan(c.IDs[0], sp.k, sp.n)
		}
	} else {
		for i := 0; i < c.head; i++ {
			p.appendRun(c.IDs[i], c.Runs[i])
		}
	}
	p.IDs = append(p.IDs, c.IDs[c.head:]...)
	p.Runs = append(p.Runs, c.Runs[c.head:]...)
	if st.kinds {
		p.Kinds = append(p.Kinds, c.Kinds[c.head:]...)
	}
	for _, w := range c.Runs[c.head:] {
		p.Accesses += uint64(w)
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
	return nil
}

// emitSpan cuts the first n (final) pending runs into a Span — a
// released one when its columns are large enough, else a fresh one
// sized to n, which is the full geometry for every span but a stream's
// last — and compacts the pending tail.
func (st *spanStitcher) emitSpan(n int) error {
	s := st.owner.freeSpans.get()
	if s == nil || cap(s.IDs) < n {
		s = &Span{BlockStream: BlockStream{IDs: make([]uint64, 0, n), Runs: make([]uint32, 0, n)}}
		if st.kinds {
			s.Kinds = make([]KindRun, 0, n)
		}
	}
	s.Seq, s.Start, s.owner = st.seq, st.start, st.owner
	s.BlockSize, s.Accesses = st.pend.BlockSize, 0
	s.IDs = append(s.IDs[:0], st.pend.IDs[:n]...)
	s.Runs = append(s.Runs[:0], st.pend.Runs[:n]...)
	if st.kinds {
		s.Kinds = append(s.Kinds[:0], st.pend.Kinds[:n]...)
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

		freeSpans:  make(freeList[*Span], liveSpans),
		freeChunks: make(freeList[*runChunk], liveChunks(workers)),
	}
	st := &spanStitcher{
		pend:     BlockStream{BlockSize: blockSize},
		spanRuns: spanRuns,
		kinds:    opts.Kinds,
		owner:    p,
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
		acc := s.Accesses // the consumer owns s once it is sent
		select {
		case p.spans <- s:
			p.spansOut.Add(1)
			p.accOut.Add(acc)
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	jobs := make(chan chunkJob, p.workers)
	results := make(chan chunkResult, p.workers)
	// tickets holds one slot per chunk from its emit to its stitch; with
	// the chunk the producer is filling, at most liveChunks chunks exist
	// at once — the count ResidentBound charges and the free lists keep
	// — even while the stitcher holds later chunks back behind a slow
	// worker. A failure cancels ctx, which releases a producer waiting
	// for a slot.
	tickets := make(chan struct{}, liveChunks(p.workers)-1)
	emit := func(j chunkJob) {
		select {
		case tickets <- struct{}{}:
			jobs <- j
		case <-ctx.Done():
		}
	}
	stop := func() bool { return ctx.Err() != nil }

	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				var c *runChunk
				err := pool.Protect(func() error {
					var err error
					c, err = j.run(p.chunk())
					return err
				})
				results <- chunkResult{seq: j.seq, chunk: c, err: err}
			}
		}()
	}
	prodErr := make(chan error, 1)
	go func() {
		err := pool.Protect(func() error {
			return produce(emit, stop)
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
		errSeq := -1 // the failed chunk's seq while firstErr is a chunk's
		fail := func(err error) {
			firstErr = err
			p.cancel()
		}
		for res := range results {
			if res.err != nil {
				// The earliest failed chunk's error wins, whichever
				// worker finishes first, so the error (and its line)
				// is the one a serial decode reports.
				if firstErr == nil || res.seq < errSeq {
					fail(res.err)
					errSeq = res.seq
				}
				continue
			}
			if firstErr != nil {
				continue // drain
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
					p.freeChunks.put(c)
					<-tickets
					next++
				}
			}); err != nil {
				fail(err)
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

// chunk returns a run chunk for a decode worker: a released one when
// the free list has one, else a fresh one (the job's reserve empties it
// and sizes its columns to the chunk's access count).
func (p *StreamPipeline) chunk() *runChunk {
	if c := p.freeChunks.get(); c != nil {
		return c
	}
	return &runChunk{}
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
	p.start(ctx, st, spanReaderProducer(r, blockSize, opts.Kinds, p.chunkAcc, liveChunks(p.workers)))
	return p, nil
}

// spanReaderProducer emits chunk jobs from a batched access reader.
// Its input buffers go back to a free list of at most buffers once
// their chunk is compressed.
func spanReaderProducer(r Reader, blockSize int, kinds bool, chunkSize, buffers int) func(emit func(chunkJob), stop func() bool) error {
	off := uint(bits.TrailingZeros(uint(blockSize)))
	free := make(freeList[[]Access], buffers)
	return func(emit func(chunkJob), stop func() bool) error {
		br := Batch(r)
		seq := 0
		for !stop() {
			buf := free.get()
			if buf == nil {
				buf = make([]Access, chunkSize)
			}
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
				emit(chunkJob{seq: seq, run: func(dst *runChunk) (*runChunk, error) {
					defer free.put(buf)
					dst.reserve(kinds, len(accs))
					if err := dst.appendAccesses(accs, off); err != nil {
						return nil, err
					}
					return dst.finish(), nil
				}})
				seq++
			} else {
				free.put(buf)
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
	p.start(ctx, st, spanDinProducer(r, blockSize, kinds, chunkBytes, liveChunks(p.workers)))
}

// spanDinProducer emits .din text chunks cut at line boundaries. Its
// text buffers go back to a free list of at most buffers once their
// chunk is parsed; the partial line after each cut is carried in a
// buffer the producer alone owns. A line of maxDinLine bytes or more
// fails the decode exactly as it fails DinReader, after every earlier
// line, so the carry stays below maxDinLine+chunkBytes.
func spanDinProducer(r io.Reader, blockSize int, kinds bool, chunkBytes, buffers int) func(emit func(chunkJob), stop func() bool) error {
	off := uint(bits.TrailingZeros(uint(blockSize)))
	free := make(freeList[[]byte], buffers)
	// Every line but a buffer's first lies within one read of at most
	// chunkBytes bytes, so only the first can reach the limit.
	chunkBytes = min(chunkBytes, maxDinLine)
	return func(emit func(chunkJob), stop func() bool) error {
		var rem, carry []byte
		seq := 0
		startLine := 1
		emitChunk := func(buf []byte, n int) {
			b := buf[:n]
			lines := bytes.Count(b, []byte{'\n'})
			base := startLine
			startLine += lines
			emit(chunkJob{seq: seq, run: func(dst *runChunk) (*runChunk, error) {
				defer free.put(buf)
				return parseDinChunk(dst, b, base, lines, off, kinds)
			}})
			seq++
		}
		for !stop() {
			need := len(rem) + chunkBytes
			buf := free.get()
			if cap(buf) < need {
				// Slack for the carried partial line, so a recycled
				// buffer fits the next chunk too.
				buf = make([]byte, need, need+chunkBytes/64)
			}
			buf = buf[:need]
			copy(buf, rem)
			n, err := io.ReadFull(r, buf[len(rem):])
			buf = buf[:len(rem)+n]
			// The first line continues the carry, which holds no newline.
			first := len(buf)
			if i := bytes.IndexByte(buf[len(rem):], '\n'); i >= 0 {
				first = len(rem) + i
			}
			if first >= maxDinLine {
				return errDinLineTooLong(startLine)
			}
			rem = nil
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					return err
				}
				if len(buf) > 0 {
					emitChunk(buf, len(buf))
				}
				return nil
			}
			// Without a line boundary yet (a line longer than the chunk)
			// the whole buffer is carried.
			cut := bytes.LastIndexByte(buf, '\n')
			carry = append(carry[:0], buf[cut+1:]...)
			rem = carry
			if cut < 0 {
				free.put(buf)
				continue
			}
			emitChunk(buf, cut+1)
		}
		return nil
	}
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
		p.start(ctx, st, spanReaderProducer(NewBinReader(bufio.NewReader(src)), blockSize, opts.Kinds, p.chunkAcc, liveChunks(p.workers)))
	} else {
		p.startDin(ctx, st, src, blockSize, opts.Kinds)
	}
	return p, nil
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
// the span size a pipeline at DefaultSpanMemBytes emits, so a
// materialized stream feeds a span consumer — a per-span shard split,
// say — in the same slices the decode would have delivered.
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
