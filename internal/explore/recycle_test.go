package explore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"dew/internal/cache"
	"dew/internal/engine"
	"dew/internal/leakcheck"
	"dew/internal/pool"
	"dew/internal/store"
	"dew/internal/trace"
)

// Two test engines wrap dew. "explore-fresh" hides the Rebinder
// capability, so every pass builds a new engine: the reference the
// recycling schedule must reproduce bit for bit. "explore-recycle"
// keeps the capability, counts its constructions, and can inject a
// fault (a panic, or a cancellation) into the Nth replay of a run.
var (
	recycleBuilt     atomic.Int64 // explore-recycle constructions
	recycleReplays   atomic.Int64 // explore-recycle stream replays
	recycleReuseBad  atomic.Int64 // rebinds offered a failed engine
	recycleFaultAt   int64        // 1-based replay that fails; 0 never
	recycleFaultStop context.CancelFunc
)

type freshEngine struct{ engine.Engine }

type recycleEngine struct {
	engine.Engine
	failed atomic.Bool
}

func (e *recycleEngine) Rebind(spec engine.Spec) bool {
	if e.failed.Load() {
		recycleReuseBad.Add(1)
	}
	return e.Engine.(engine.Rebinder).Rebind(spec)
}

func (e *recycleEngine) SimulateStream(bs *trace.BlockStream) error {
	if recycleReplays.Add(1) == recycleFaultAt {
		e.failed.Store(true)
		if recycleFaultStop != nil {
			recycleFaultStop()
			return context.Canceled
		}
		panic("injected engine fault")
	}
	return e.Engine.SimulateStream(bs)
}

func init() {
	engine.Register("explore-fresh", "test: dew without arena recycling", func(s engine.Spec) (engine.Engine, error) {
		e, err := engine.New("dew", s)
		return freshEngine{e}, err
	})
	engine.Register("explore-recycle", "test: dew counting constructions, with fault injection", func(s engine.Spec) (engine.Engine, error) {
		recycleBuilt.Add(1)
		e, err := engine.New("dew", s)
		return &recycleEngine{Engine: e}, err
	})
}

// recycleSpace has four block sizes and three wide associativities
// over a forest of set counts: 12 passes, at most 3 engines per worker.
func recycleSpace() cache.ParamSpace {
	return cache.ParamSpace{
		MinLogSets: 1, MaxLogSets: 6,
		MinLogBlock: 0, MaxLogBlock: 3,
		MinLogAssoc: 0, MaxLogAssoc: 3,
	}
}

// sameExploration compares everything a recycled run must reproduce:
// the merged statistics, the per-rung stream shapes and the kind totals.
func sameExploration(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("%s: statistics differ from the fresh-engine run", label)
	}
	if !reflect.DeepEqual(got.StreamCompression, want.StreamCompression) {
		t.Fatalf("%s: StreamCompression %v, want %v", label, got.StreamCompression, want.StreamCompression)
	}
	if got.KindTotals != want.KindTotals || got.Folds != want.Folds || got.Passes != want.Passes {
		t.Fatalf("%s: kinds %v folds %d passes %d, want %v %d %d", label,
			got.KindTotals, got.Folds, got.Passes, want.KindTotals, want.Folds, want.Passes)
	}
}

// TestRunRecycledEnginesBitIdentical: recycled engines and the sliding
// fold ladder reproduce the fresh-engine run exactly — at 1, 2 and 4
// workers, cold, partially warm (the result tier holds the two finest
// block sizes' passes) and warm, with and without the kind channel —
// while building at most workers × assocs engines per run.
func TestRunRecycledEnginesBitIdentical(t *testing.T) {
	space := recycleSpace()
	wide := len(space.Assocs()) - 1
	tr := randomTrace(6000, 21)
	for _, kinds := range []bool{false, true} {
		want, err := Run(context.Background(), Request{Space: space, Source: fromTrace(tr), Workers: 1, Engine: "explore-fresh", Kinds: kinds})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			req := Request{Space: space, Source: fromTrace(tr), Workers: workers, Engine: "explore-recycle", Kinds: kinds}
			narrow := req
			narrow.Space.MaxLogBlock = 1
			narrow.Cache, narrow.SourceID = st, store.TraceID(tr)
			if _, err := Run(context.Background(), narrow); err != nil {
				t.Fatal(err)
			}
			cached := req
			cached.Cache, cached.SourceID = st, narrow.SourceID
			for _, run := range []struct {
				name    string
				req     Request
				decodes int
			}{
				{"cold", req, 1},
				{"partially warm", cached, 0},
				{"warm", cached, 0},
			} {
				label := fmt.Sprintf("kinds=%v workers=%d %s", kinds, workers, run.name)
				recycleBuilt.Store(0)
				got, err := Run(context.Background(), run.req)
				if err != nil {
					t.Fatal(err)
				}
				sameExploration(t, label, got, want)
				if got.Decodes != run.decodes {
					t.Errorf("%s: Decodes = %d, want %d", label, got.Decodes, run.decodes)
				}
				if n := recycleBuilt.Load(); n > int64(workers*wide) {
					t.Errorf("%s: built %d engines for %d passes, want at most %d", label, n, got.Passes, workers*wide)
				}
				if run.name == "partially warm" && (got.CellsCached != 6 || got.CellsSimulated != 6) {
					t.Errorf("%s: %d cached, %d simulated passes; want 6/6", label, got.CellsCached, got.CellsSimulated)
				}
			}
		}
	}
}

// TestRunRecycleFaults injects a panic, then a cancellation, into a
// pass mid-run: the run fails with the typed error, leaves no goroutine
// behind, and never offers the failed engine to a later pass.
func TestRunRecycleFaults(t *testing.T) {
	tr := randomTrace(6000, 22)
	for _, cancelRun := range []bool{false, true} {
		func() {
			defer leakcheck.Check(t)()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			recycleReplays.Store(0)
			recycleReuseBad.Store(0)
			recycleFaultAt = 5
			recycleFaultStop = nil
			if cancelRun {
				recycleFaultStop = cancel
			}
			defer func() { recycleFaultAt, recycleFaultStop = 0, nil }()
			res, err := Run(ctx, Request{Space: recycleSpace(), Source: fromTrace(tr), Workers: 2, Engine: "explore-recycle"})
			var pe *pool.PanicError
			switch {
			case cancelRun && !errors.Is(err, context.Canceled):
				t.Fatalf("cancelled pass: %v, want context.Canceled", err)
			case !cancelRun && !errors.As(err, &pe):
				t.Fatalf("panicking pass: %v, want a *pool.PanicError", err)
			}
			if res != nil {
				t.Error("failed exploration returned a result")
			}
			if n := recycleReuseBad.Load(); n != 0 {
				t.Errorf("cancel=%v: a failed engine was offered for reuse %d times", cancelRun, n)
			}
		}()
	}
}

// TestRunSharedStoreRungIntact: two explorations in one process share a
// store with an in-process tier, so both replay the tier's copy of the
// finest rung. The sliding fold ladder refills released rungs in place,
// but never that shared one: after both runs it still holds exactly
// what the trace materializes to, and each run matches a cache-less run
// (whose ladder does refill its own finest rung) at 1, 2 and 4 workers.
func TestRunSharedStoreRungIntact(t *testing.T) {
	ctx := context.Background()
	tr := randomTrace(6000, 23)
	first := recycleSpace()
	second := first
	second.MaxLogSets++ // other passes over the same finest rung
	base := first.BlockSizes()[0]
	want0, err := trace.MaterializeBlockStream(tr.NewSliceReader(), base)
	if err != nil {
		t.Fatal(err)
	}
	id := store.TraceID(tr)
	key := store.Key(id, base, 0, false)
	for _, workers := range []int{1, 2, 4} {
		st, err := store.Open(t.TempDir(), store.Options{MemBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		var shared *trace.BlockStream
		for i, space := range []cache.ParamSpace{first, second} {
			label := fmt.Sprintf("workers=%d run %d", workers, i+1)
			want, err := Run(ctx, Request{Space: space, Source: fromTrace(tr), Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(ctx, Request{Space: space, Source: fromTrace(tr), Workers: workers, Cache: st, SourceID: id})
			if err != nil {
				t.Fatal(err)
			}
			sameExploration(t, label, got, want)
			if got.CacheHit != (i == 1) || got.CellsSimulated != got.Passes {
				t.Fatalf("%s: cache hit %v, %d of %d passes simulated", label, got.CacheHit, got.CellsSimulated, got.Passes)
			}
			bs, err := st.Load(ctx, key, base, false)
			if err != nil {
				t.Fatal(err)
			}
			if shared == nil {
				shared = bs
			} else if bs != shared {
				t.Fatalf("%s: the in-process tier holds another stream", label)
			}
			if !reflect.DeepEqual(bs, want0) {
				t.Fatalf("%s: the in-process tier's finest rung was overwritten", label)
			}
		}
	}
}
