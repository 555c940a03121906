package refsim

import (
	"context"
	"errors"
	"testing"

	"dew/internal/cache"
	"dew/internal/leakcheck"
	"dew/internal/trace"
	"dew/internal/workload"
)

func cancelShardStream(t *testing.T, n int) *trace.ShardStream {
	t.Helper()
	tr := workload.CJPEG.Trace(1, n)
	parent, err := tr.BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := trace.ShardBlockStream(parent, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func TestRunShardedCancelled(t *testing.T) {
	defer leakcheck.Check(t)()
	ss := cancelShardStream(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sh, err := NewSharded(cache.Config{Sets: 64, Assoc: 2, BlockSize: 16}, cache.FIFO, ss.Log, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.SimulateStream(ctx, ss); !errors.Is(err, context.Canceled) {
		t.Fatalf("sharded SimulateStream on cancelled ctx: %v, want context.Canceled", err)
	}
}

func TestSimulateStreamCancelled(t *testing.T) {
	defer leakcheck.Check(t)()
	ss := cancelShardStream(t, 20000)
	sh, err := NewSharded(cache.Config{Sets: 64, Assoc: 2, BlockSize: 16}, cache.FIFO, ss.Log, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sh.SimulateStream(ctx, ss); !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulateStream on cancelled ctx: %v, want context.Canceled", err)
	}
}
