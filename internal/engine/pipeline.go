package engine

import (
	"context"
	"fmt"

	"dew/internal/pool"
	"dew/internal/store"
	"dew/internal/trace"
)

// SpanLadder is the span-ladder replay driver behind every streamed or
// sharded replay: each finest-rung span is folded through a
// trace.LadderFolder into every rung of the block-size ladder, then the
// rungs with live engines replay concurrently, one pool task per rung
// replaying its engines in order. Every engine belongs to exactly one
// rung and accumulates across calls, so it still sees its spans in
// stream order, one call at a time: the results are bit-identical to
// the monolithic replay at every worker count and shard level. Feed
// every span in order, then Flush exactly once.
type SpanLadder struct {
	folder  *trace.LadderFolder
	rungs   map[int]*ladderRung
	workers int
	ready   []*ladderRung // rungs collected by the current Feed
}

// ladderRung is one block size of the ladder and the stream shape it
// has seen so far.
type ladderRung struct {
	engs     []Engine
	log      int
	part     trace.ShardStream
	span     *trace.BlockStream // the folded span collected by the current Feed
	accesses uint64
	runs     uint64
}

// NewSpanLadder builds a driver folding spans at base into every size
// of blocks (kinds: kind-preserving folds) and replaying engs[b], the
// engines of rung b, at shard level shardLog (negative: unsharded) with
// at most workers rungs in flight (≤ 0: GOMAXPROCS). A rung without
// engines is still folded and counted (see Shape).
func NewSpanLadder(base int, blocks []int, kinds bool, shardLog, workers int, engs map[int][]Engine) (*SpanLadder, error) {
	folder, err := trace.NewLadderFolder(base, blocks, kinds)
	if err != nil {
		return nil, err
	}
	l := &SpanLadder{folder: folder, rungs: make(map[int]*ladderRung, len(blocks)), workers: workers}
	for _, b := range folder.Blocks() {
		l.rungs[b] = &ladderRung{engs: engs[b], log: shardLog}
	}
	for b := range engs {
		if l.rungs[b] == nil {
			return nil, fmt.Errorf("engine: engines at block size %d, not a rung of the ladder %v", b, folder.Blocks())
		}
	}
	return l, nil
}

// collect is the fold visit: it counts the span into rung b's shape
// and queues the rung for replay when it has engines.
func (l *SpanLadder) collect(b int, s *trace.BlockStream) error {
	r := l.rungs[b]
	r.accesses += s.Accesses
	r.runs += uint64(s.Len())
	if len(r.engs) > 0 {
		r.span = s
		l.ready = append(l.ready, r)
	}
	return nil
}

// replay replays the queued rungs, at most workers at a time. A failed
// rung stops the pool (its error names the rung's block size; a panic
// surfaces as a *pool.PanicError), and a cancelled ctx returns ctx's
// error with the pool drained; either way the engines are left
// mid-stream. The pool's return is the barrier before the folder reuses
// the rungs' spans.
func (l *SpanLadder) replay(ctx context.Context, workers int) error {
	err := pool.Run(ctx, workers, len(l.ready), func(i int) error { return l.ready[i].replay(ctx) })
	l.ready = l.ready[:0]
	return err
}

// Feed folds one finest-rung span through the ladder, collecting every
// rung's folded span, then replays the collected rungs concurrently.
func (l *SpanLadder) Feed(ctx context.Context, span *trace.BlockStream) error {
	if err := l.folder.Feed(span, l.collect); err != nil {
		return err
	}
	return l.replay(ctx, l.workers)
}

// Flush drains the folder's carries and replays each rung's final span
// before the next is folded: the folder's flush spans share one scratch
// buffer across stages.
func (l *SpanLadder) Flush(ctx context.Context) error {
	return l.folder.Flush(func(b int, s *trace.BlockStream) error {
		l.collect(b, s)
		return l.replay(ctx, 1)
	})
}

// Shape reports the accesses and runs of every span rung b (a block
// size of the ladder) has been fed so far; after Flush, those of the
// whole rung stream.
func (l *SpanLadder) Shape(b int) (accesses, runs uint64) {
	r := l.rungs[b]
	return r.accesses, r.runs
}

// replay replays the rung's collected span through its engines in
// order. Sharded, the span is split once for all of them into the
// rung's partition, retained across calls (trace.ShardBlockStreamInto,
// O(runs), allocation-free once warm), so a sharded pass holds one
// span's partition, not the whole stream's; a run cut at a span
// boundary replays exactly as the merged run.
func (r *ladderRung) replay(ctx context.Context) error {
	var part *trace.ShardStream
	if r.log >= 0 {
		var err error
		if part, err = trace.ShardBlockStreamInto(&r.part, r.span, r.log); err != nil {
			return err
		}
	}
	for _, e := range r.engs {
		if err := Replay(ctx, e, r.span, part); err != nil {
			return fmt.Errorf("engine: rung B=%d: %w", r.span.BlockSize, err)
		}
	}
	return nil
}

// SpanInput is where a span replay's finest-rung spans come from: the
// bounded decode pipeline, spooling each span into the store's stream
// tier when the entry is absent, or — when no explicit budget was set
// (loading a stream whole would break one) — a stream-tier hit cut
// into the pipeline's spans.
type SpanInput struct {
	pl     *trace.StreamPipeline
	loaded *trace.BlockStream
	put    *store.StreamPut
}

// OpenSpanInput resolves the span input at blockSize for a replay at an
// explicit budget (streamMem > 0) or at the default one (streamMem ==
// 0, where a stream-tier hit loads whole). st may be nil and key ""
// (no cache); decode starts the pipeline when the store cannot serve.
func OpenSpanInput(ctx context.Context, st *store.Store, key string, blockSize int, kinds bool, streamMem int64,
	decode func() (*trace.StreamPipeline, error)) (*SpanInput, error) {
	cached := st != nil && key != ""
	if cached && streamMem == 0 {
		// A miss or a corrupt entry (quarantined by Load) decodes.
		if bs, err := st.Load(ctx, key, blockSize, kinds); err == nil {
			return &SpanInput{loaded: bs}, nil
		}
	}
	pl, err := decode()
	if err != nil {
		return nil, err
	}
	in := &SpanInput{pl: pl}
	if cached && !st.Has(key) {
		in.put, _ = st.NewStreamPut(key, blockSize, kinds) // best-effort: no spool leaves the cache cold
	}
	return in, nil
}

// Replay feeds every span through the ladder in stream order — observe,
// when non-nil, sees each finest-rung span first — commits the spooled
// publish and flushes the ladder. A publish failure abandons the spool,
// never the replay.
func (in *SpanInput) Replay(ctx context.Context, l *SpanLadder, observe func(*trace.BlockStream)) error {
	feed := func(s *trace.BlockStream) error {
		if observe != nil {
			observe(s)
		}
		return l.Feed(ctx, s)
	}
	if in.loaded != nil {
		for _, s := range trace.SplitSpans(in.loaded, 0) {
			if err := feed(&s.BlockStream); err != nil {
				return err
			}
		}
		return l.Flush(ctx)
	}
	for s := range in.pl.Spans() {
		if in.put != nil && in.put.Add(&s.BlockStream) != nil {
			in.put.Abort()
			in.put = nil
		}
		if err := feed(&s.BlockStream); err != nil {
			return err
		}
	}
	if err := in.pl.Err(); err != nil {
		return err
	}
	if in.put != nil {
		in.put.Commit(ctx) // best-effort, like every publish
		in.put = nil
	}
	return l.Flush(ctx)
}

// Close stops the pipeline and abandons an uncommitted publish; safe
// after Replay and safe to defer.
func (in *SpanInput) Close() {
	if in.pl != nil {
		in.pl.Close()
	}
	if in.put != nil {
		in.put.Abort()
	}
}

// Loaded reports whether the spans came from a stream-tier hit instead
// of a decode.
func (in *SpanInput) Loaded() bool { return in.loaded != nil }

// ResidentBound is the decode pipeline's enforced resident-stream bound
// in bytes; 0 for a loaded stream.
func (in *SpanInput) ResidentBound() int64 {
	if in.pl == nil {
		return 0
	}
	return in.pl.ResidentBound()
}
