package engine

import (
	"context"
	"fmt"

	"dew/internal/pool"
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
