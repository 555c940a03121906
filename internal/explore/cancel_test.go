package explore

import (
	"context"
	"errors"
	"sync"
	"testing"

	"dew/internal/leakcheck"
)

func TestRunCancelledUpFront(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, Request{Space: smallSpace(), Source: fromTrace(randomTrace(1000, 1)), Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx: %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled exploration returned a partial result")
	}
}

// TestRunCancelMidExploration cancels from the Progress callback, which
// fires after each completed pass: the exploration must stop scheduling
// passes and return context.Canceled with the pool drained.
func TestRunCancelMidExploration(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	fired := 0
	res, err := Run(ctx, Request{
		Space:   smallSpace(),
		Source:  fromTrace(randomTrace(20000, 3)),
		Workers: 1,
		Progress: func(done, total int) {
			mu.Lock()
			fired++
			mu.Unlock()
			cancel()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run cancelled mid-exploration: %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled exploration returned a partial result")
	}
	mu.Lock()
	defer mu.Unlock()
	if fired == 0 || fired == 8 {
		t.Errorf("cancellation fired after %d of 8 passes; want mid-exploration", fired)
	}
}
