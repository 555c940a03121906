package sweep

import (
	"context"
	"errors"
	"sync"
	"testing"

	"dew/internal/leakcheck"
	"dew/internal/workload"
)

func cancelParams() Params {
	return Params{App: workload.CJPEG, Seed: 1, Requests: 20000,
		BlockSize: 16, Assoc: 4, MaxLogSets: 6}
}

func TestRunCellCancelled(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Runner{Workers: 2}).RunCells(ctx, []Params{cancelParams()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCells on cancelled ctx: %v, want context.Canceled", err)
	}
}

// TestRunCellsCancelMidBatch cancels from the Logf hook, which fires
// when the first cell completes: the batch must stop dispatching and
// return context.Canceled with the pool drained — cancellation at cell
// granularity, deterministically mid-run.
func TestRunCellsCancelMidBatch(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	lines := 0
	r := Runner{Workers: 1, Logf: func(string, ...interface{}) {
		mu.Lock()
		lines++
		mu.Unlock()
		cancel()
	}}
	params := make([]Params, 6)
	for i := range params {
		params[i] = cancelParams()
		params[i].Seed = uint64(i + 1)
	}
	cells, err := r.RunCells(ctx, params)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCells: %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if lines == 0 || lines == len(params) {
		t.Errorf("cancellation fired after %d of %d cells; want mid-batch", lines, len(params))
	}
	// The partial cells slice is returned alongside the error: cells
	// that did not run are zero-valued, never half-filled garbage.
	done := 0
	for _, c := range cells {
		if c.Requests != 0 {
			done++
		}
	}
	if done != lines {
		t.Errorf("%d completed cells for %d log lines", done, lines)
	}
}
