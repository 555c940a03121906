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
// Run formation's only mutable state is the open run (see pipeline.go);
// every run before it is final. The span stitcher therefore always
// withholds the open run and emits only final runs, cutting spans at
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
// in the channel, the one the stitcher is building, the one the
// consumer reads, and one it may still hold while it receives the
// next.
const liveSpans = spanChanCap + 3

// liveChunks is the number of decode chunks the geometry charges: one
// per worker plus one queued and one being produced.
func liveChunks(workers int) int { return workers + 2 }

// SpanOptions configures a span pipeline.
type SpanOptions struct {
	// MemBytes is the pipeline's working-set budget — buffered spans
	// and in-flight decode chunks; 0 means
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
// back to a free list once its last reader is done: input buffers (.din
// text or access batches) after their chunk is compressed, run chunks
// after the stitch, spans after the consumer's Release. Each list is
// bounded by the geometry's counts (liveChunks input buffers and run
// chunks, liveSpans spans), so what the lists park is charged in
// ResidentBound and the heap tracks the live working set instead of its
// garbage.
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
	freeText   freeList[[]byte] // .din text buffers

	spansOut   atomic.Uint64
	accOut     atomic.Uint64
	kindTotals [3]uint64 // set once the stitch stops
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

// ResidentBound returns the pipeline's worst-case resident bytes under
// the resolved geometry: every bufferable span live at once plus every
// in-flight decode chunk — its input buffer and the most runs that input
// can reserve, which for .din text is one run per 4 bytes. The free
// lists park no more than those same counts, so the figure covers every
// buffer the pipeline holds; spans a consumer keeps without releasing
// are its own, and a .din line longer than 1/64 of a text chunk grows
// the buffers that carry it. This is the figure provenance reports as
// "peak resident".
func (p *StreamPipeline) ResidentBound() int64 { return p.resident }

// KindTotals returns the per-kind access totals of the stream, indexed
// by Kind: all zeros without the kind channel, else the totals the
// decode chunks counted as they formed their runs, which sum to the
// emitted accesses. It blocks until the pipeline has stopped, like
// Err.
func (p *StreamPipeline) KindTotals() [3]uint64 {
	<-p.done
	return p.kindTotals
}

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
// instead of failing. workers must already be resolved. resident is
// the bound of a pipeline fed by an access reader, whose chunks hold
// chunkAcc accesses (16 B each) and reserve at most chunkAcc runs; a
// .din pipeline charges its text chunks instead (dinGeometry).
func spanGeometry(memBytes int64, workers int, kinds bool) (spanRuns, chunkAcc int, resident int64) {
	bpr := bytesPerSpanRun(kinds)
	spanRuns = int(memBytes / 2 / (bpr * liveSpans))
	spanRuns = max(256, min(spanRuns, 1<<22))
	perAcc := int64(16) + bpr
	chunks := int64(liveChunks(workers))
	chunkAcc = int(memBytes / 2 / (perAcc * chunks))
	chunkAcc = max(1024, min(chunkAcc, defaultChunkAcc))
	resident = liveSpans*int64(spanRuns)*bpr + chunks*int64(chunkAcc)*perAcc
	return spanRuns, chunkAcc, resident
}

// dinGeometry resolves a .din pipeline's text chunk size from the
// access geometry — a .din line is ≥ 8 bytes per access, so the access
// geometry bounds the byte geometry — and its resident bound: every
// span, and for each live chunk its text buffer (dinTextCap) and the
// runs its reservation may take, one per 4 bytes of that text (the
// shortest line, "0 0\n"), plus the producer's carried partial line.
// Lines longer than chunkBytes/64 carry past the bound. A text chunk
// holds the bytes of chunkAcc 16-byte lines, so its floor is
// spanGeometry's: 16 KiB at the 1024-access minimum.
func dinGeometry(spanRuns, chunkAcc, workers int, kinds bool) (chunkBytes int, resident int64) {
	bpr := bytesPerSpanRun(kinds)
	chunkBytes = min(chunkAcc*16, dinChunkBytes)
	text := dinTextCap(chunkBytes)
	perChunk := int64(text) + int64(dinMaxRuns(text))*bpr
	resident = liveSpans*int64(spanRuns)*bpr + int64(liveChunks(workers))*perChunk + int64(chunkBytes/64)
	return chunkBytes, resident
}

// dinTextCap is the capacity of a .din text buffer for chunks of
// chunkBytes: the chunk plus room for a carried partial line.
func dinTextCap(chunkBytes int) int { return chunkBytes + chunkBytes/64 }

// spanStitcher consumes runChunks in stream order and emits their
// final runs as spans. Its only state is run formation's — the
// stream's open run — and the span being built.
type spanStitcher struct {
	open       openRun // the stream's open run, withheld until it closes
	span       *Span   // the span being built, or nil
	start      uint64  // access offset of the next span's first access
	seq        int
	blockSize  int
	spanRuns   int
	kinds      bool
	kindTotals [3]uint64       // per-kind totals of the chunks stitched
	owner      *StreamPipeline // recycles released spans
	emit       func(*Span) error
}

// add appends one chunk in stream order (see pipeline.go): its head
// steps onto the open run — from its recorded kind order with the kind
// channel — and, if a run follows the head, the open run is final,
// every run after the head but the chunk's last copies straight into
// spans, and the last becomes the open run.
func (st *spanStitcher) add(c *runChunk) error {
	n := len(c.IDs)
	if n == 0 {
		return nil
	}
	for k, t := range c.kindTotals {
		st.kindTotals[k] += t
	}
	rest := c.Accesses - uint64(c.Runs[n-1]) // accesses of the runs to copy
	if st.kinds {
		for _, sp := range c.headKinds {
			if err := st.push(c.IDs[0], sp.k, sp.n); err != nil {
				return err
			}
		}
		rest -= c.headAcc
	} else {
		for i := range c.head {
			if err := st.push(c.IDs[i], 0, c.Runs[i]); err != nil {
				return err
			}
			rest -= uint64(c.Runs[i])
		}
	}
	if c.head == n {
		return nil
	}
	if err := st.closeOpen(); err != nil {
		return err
	}
	for i := c.head; i < n-1; {
		s := st.building(n - 1 - i)
		j := min(n-1, i+st.spanRuns-s.Len())
		s.IDs = append(s.IDs, c.IDs[i:j]...)
		s.Runs = append(s.Runs, c.Runs[i:j]...)
		if st.kinds {
			s.Kinds = append(s.Kinds, c.Kinds[i:j]...)
		}
		part := rest
		if j < n-1 { // a span cut inside the chunk: its part is summed
			part = 0
			for _, w := range c.Runs[i:j] {
				part += uint64(w)
			}
		}
		s.Accesses += part
		rest -= part
		if err := st.ship(false); err != nil {
			return err
		}
		i = j
	}
	var kr KindRun
	if st.kinds {
		kr = c.Kinds[n-1]
	}
	st.open = openRunOf(c.IDs[n-1], c.Runs[n-1], kr, st.kinds)
	return nil
}

// push steps the open run, moving a run it closes into the span being
// built.
func (st *spanStitcher) push(id uint64, k Kind, n uint32) error {
	s := st.building(1)
	m := s.Len()
	if st.open = s.step(st.open, id, k, n, st.kinds); s.Len() == m {
		return nil
	}
	s.Accesses += uint64(s.Runs[m])
	return st.ship(false)
}

// closeOpen moves the open run, which the next run makes final, into
// the span being built.
func (st *spanStitcher) closeOpen() error {
	if st.open.wf == 0 {
		return nil
	}
	s := st.building(1)
	s.close(st.open, st.kinds)
	s.Accesses += uint64(st.open.weight())
	st.open = openRun{}
	return st.ship(false)
}

// building returns the span being built, with room for m more runs or
// as many as it still takes, starting one when there is none: a
// released span when the free list has one, else a fresh one whose
// columns grow by doubling to the geometry's size, so a short stream
// allocates only about what it holds.
func (st *spanStitcher) building(m int) *Span {
	s := st.span
	if s == nil {
		if s = st.owner.freeSpans.get(); s == nil {
			s = &Span{}
		}
		s.IDs, s.Runs, s.Kinds = s.IDs[:0], s.Runs[:0], s.Kinds[:0]
		s.BlockSize, s.Accesses = st.blockSize, 0
		s.Seq, s.Start, s.owner = st.seq, st.start, st.owner
		st.span = s
	}
	if n := min(len(s.IDs)+m, st.spanRuns); n > cap(s.IDs) {
		c := min(st.spanRuns, max(2*n, 256))
		s.IDs = append(make([]uint64, 0, c), s.IDs...)
		s.Runs = append(make([]uint32, 0, c), s.Runs...)
		if st.kinds {
			s.Kinds = append(make([]KindRun, 0, c), s.Kinds...)
		}
	}
	return s
}

// ship emits the span being built once it holds spanRuns runs, or, at
// the end of the stream, whatever it holds.
func (st *spanStitcher) ship(end bool) error {
	s := st.span
	if s == nil || !end && s.Len() < st.spanRuns {
		return nil
	}
	st.span = nil
	st.start += s.Accesses
	st.seq++
	return st.emit(s)
}

// finish ends the stream: the open run is final, and the span being
// built is emitted.
func (st *spanStitcher) finish() error {
	if err := st.closeOpen(); err != nil {
		return err
	}
	return st.ship(true)
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
		freeText:   make(freeList[[]byte], liveChunks(workers)),
	}
	st := &spanStitcher{
		blockSize: blockSize,
		spanRuns:  spanRuns,
		kinds:     opts.Kinds,
		owner:     p,
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
			firstErr = pool.Protect(st.finish)
		}
		p.kindTotals = st.kindTotals
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
					dst.reserve(kinds, len(accs), chunkSize)
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

// startDin starts the .din text producer over r, with the text chunks
// and resident bound of dinGeometry.
func (p *StreamPipeline) startDin(ctx context.Context, st *spanStitcher, r io.Reader, blockSize int, kinds bool) {
	var chunkBytes int
	chunkBytes, p.resident = dinGeometry(st.spanRuns, p.chunkAcc, p.workers, kinds)
	p.start(ctx, st, spanDinProducer(r, blockSize, kinds, chunkBytes, p.freeText))
}

// spanDinProducer emits .din text chunks cut at line boundaries. Its
// text buffers go back to the free list once their chunk is parsed;
// the partial line after each cut is carried in a buffer the producer
// alone owns. A line of maxDinLine bytes or more
// fails the decode exactly as it fails DinReader, after every earlier
// line, so the carry stays below maxDinLine+chunkBytes.
func spanDinProducer(r io.Reader, blockSize int, kinds bool, chunkBytes int, free freeList[[]byte]) func(emit func(chunkJob), stop func() bool) error {
	off := uint(bits.TrailingZeros(uint(blockSize)))
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
				buf = make([]byte, need, max(need, dinTextCap(chunkBytes)))
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

// SplitSpans cuts an already materialized stream into consecutive
// spans of at most spanRuns runs each, sharing bs's columns (nothing is
// copied). spanRuns ≤ 0 means
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
