package engine

import (
	"context"
	"errors"
	"testing"

	"dew/internal/cache"
	"dew/internal/leakcheck"
	"dew/internal/trace"
)

func TestReplayCancelled(t *testing.T) {
	defer leakcheck.Check(t)()
	tr := engineTrace(5000)
	bs, err := tr.BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := trace.ShardBlockStream(bs, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{MaxLogSets: 5, Assoc: 2, BlockSize: 16, Policy: cache.FIFO, Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Monolithic replay checks ctx up front; sharded replay honours it
	// at substream granularity. Both must refuse a cancelled ctx.
	for name, shards := range map[string]*trace.ShardStream{"stream": nil, "sharded": ss} {
		e, err := New("dew", spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := Replay(ctx, e, bs, shards); !errors.Is(err, context.Canceled) {
			t.Errorf("%s replay on cancelled ctx: %v, want context.Canceled", name, err)
		}
	}
}

// TestSpanReplayerCancelMidStream cancels a sharded three-rung
// span-ladder replay halfway through the spans: the next Feed refuses
// the cancelled context and returns with every pool drained, and a
// cancellation raised inside a rung's replay stops the rungs queued
// behind it.
func TestSpanReplayerCancelMidStream(t *testing.T) {
	defer leakcheck.Check(t)()
	bs, err := engineTrace(20000).BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}
	spans := trace.SplitSpans(bs, 256)
	if len(spans) < 4 {
		t.Fatalf("only %d spans", len(spans))
	}
	ladder := []int{16, 32, 64}
	newLadder := func(wrap func(int, Engine) Engine) (*SpanLadder, map[int][]Engine) {
		engs := map[int][]Engine{}
		for _, b := range ladder {
			e, err := New("dew", Spec{MaxLogSets: 5, Assoc: 2, BlockSize: b, Policy: cache.FIFO, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			engs[b] = []Engine{wrap(b, e)}
		}
		l, err := NewSpanLadder(16, ladder, false, 2, 2, engs)
		if err != nil {
			t.Fatal(err)
		}
		return l, engs
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l, _ := newLadder(func(_ int, e Engine) Engine { return e })
	for i, s := range spans {
		if i == len(spans)/2 {
			cancel()
		}
		err = l.Feed(ctx, &s.BlockStream)
		if i < len(spans)/2 && err != nil {
			t.Fatalf("span %d before the cancellation: %v", i, err)
		}
		if i >= len(spans)/2 {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("replay after cancellation: %v, want context.Canceled", err)
	}

	// Cancelled from inside the first rung's replay, one rung at a time:
	// the pool must not start the rungs queued behind it.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	l2, engs := newLadder(func(b int, e Engine) Engine {
		if b == 16 {
			return &hookEngine{Engine: e, before: cancel2}
		}
		return e
	})
	l2.workers = 1
	if err := l2.Feed(ctx2, &spans[0].BlockStream); !errors.Is(err, context.Canceled) {
		t.Fatalf("replay cancelled inside a rung: %v, want context.Canceled", err)
	}
	if n := accesses(t, engs[64][0]); n != 0 {
		t.Fatalf("a rung queued behind the cancellation replayed %d accesses", n)
	}
}

// hookEngine runs before ahead of every replay of the wrapped engine —
// a test seam for panics and cancellations raised mid-Feed.
type hookEngine struct {
	Engine
	before func()
}

func (h *hookEngine) SimulateStream(bs *trace.BlockStream) error {
	h.before()
	return h.Engine.SimulateStream(bs)
}

func (h *hookEngine) SimulateSharded(ctx context.Context, ss *trace.ShardStream) error {
	h.before()
	return h.Engine.SimulateSharded(ctx, ss)
}
