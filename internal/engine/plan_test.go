package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"dew/internal/cache"
	"dew/internal/refsim"
	"dew/internal/store"
	"dew/internal/trace"
)

// planBuilds counts constructions of the "plan-count" test engine.
var planBuilds atomic.Int32

func init() {
	Register("plan-count", "test: dew counting constructions", func(s Spec) (Engine, error) {
		planBuilds.Add(1)
		return New("dew", s)
	})
}

// planFixture is one trace, a store and a source identity for it.
type planFixture struct {
	tr  trace.Trace
	st  *store.Store
	src string
}

func newPlanFixture(t *testing.T) planFixture {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := engineTrace(6000)
	return planFixture{tr: tr, st: st, src: store.TraceID(tr)}
}

// plan builds a one-pass plan over the fixture.
func (f planFixture) plan(name string, spec Spec, kinds, warmCheck bool) *Plan {
	return &Plan{Store: f.st, SourceID: f.src, Kinds: kinds, WarmCheck: warmCheck,
		Passes: []Pass{{Engine: name, Spec: spec}}}
}

// replay runs p over the fixture's trace on the span pipeline.
func (f planFixture) replay(p *Plan) ([]PassResult, int64, error) {
	block := p.Passes[0].Spec.BlockSize
	return p.Replay(context.Background(), Spans{
		Blocks: []int{block}, ShardLog: -1, Workers: 1,
		Decode: func() (*trace.StreamPipeline, error) {
			return trace.StreamSpans(context.Background(), f.tr.NewSliceReader(), block,
				trace.SpanOptions{MemBytes: 1 << 16, Workers: 1, Kinds: p.Kinds})
		},
	})
}

// key is the result key the plan derives for its one pass.
func (f planFixture) key(p *Plan) string {
	ps := p.Passes[0]
	return store.ResultKey(store.Key(f.src, ps.Spec.BlockSize, 0, p.Kinds), ps.Engine, ps.Spec.CacheKey())
}

var (
	planDewSpec = Spec{MaxLogSets: 5, Assoc: 2, BlockSize: 16, Policy: cache.FIFO}
	planRefSpec = Spec{MinLogSets: 4, MaxLogSets: 4, Assoc: 2, BlockSize: 16, Policy: cache.LRU,
		WriteSim: true, Write: refsim.WriteThrough, Alloc: refsim.NoWriteAllocate}
)

// TestPlanWarmCheckCatchesTampering: a cached record whose statistics,
// stream shape, kind totals or reference section disagree with the
// live re-simulation fails the warm check with "diverged", and the
// entry is dropped. The kind-total row pins that Probe never seeds
// KindTotals from a cached record: the warm check would then compare
// the cached totals with themselves.
func TestPlanWarmCheckCatchesTampering(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine string
		spec   Spec
		tamper func(rb *store.ResultBlob)
	}{
		{"stats", "dew", planDewSpec, func(rb *store.ResultBlob) { rb.Records[0].Stats.Misses-- }},
		{"runs", "dew", planDewSpec, func(rb *store.ResultBlob) { rb.Scalars[1]++ }},
		{"kind-total", "dew", planDewSpec, func(rb *store.ResultBlob) { rb.Scalars[2]++ }},
		{"traffic", "ref", planRefSpec, func(rb *store.ResultBlob) { rb.Records[0].Traffic.BytesToMemory++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newPlanFixture(t)
			cold, _, err := f.replay(f.plan(tc.engine, tc.spec, true, true))
			if err != nil {
				t.Fatal(err)
			}
			if cold[0].KindTotals == ([3]uint64{}) {
				t.Fatal("cold replay recorded no kind totals")
			}
			p := f.plan(tc.engine, tc.spec, true, true)
			key := f.key(p)
			rb, err := f.st.GetResult(context.Background(), key, tc.engine, tc.spec.CacheKey())
			if err != nil {
				t.Fatal(err)
			}
			if rb.Records[0].Stats.Misses == 0 {
				t.Fatal("fixture has a miss-free configuration; the stats row needs misses to tamper with")
			}
			tc.tamper(rb)
			if err := f.st.PutResult(context.Background(), key, rb); err != nil {
				t.Fatal(err)
			}

			if live := p.Probe(context.Background()); live != 1 || !p.Live(0) {
				t.Fatalf("probe: %d live, Live(0)=%v; want the hit picked as the warm check", live, p.Live(0))
			}
			if p.KindTotals != ([3]uint64{}) {
				t.Fatalf("probe seeded KindTotals %v from the cached record", p.KindTotals)
			}
			if _, _, err := f.replay(p); err == nil || !strings.Contains(err.Error(), "diverged") {
				t.Fatalf("tampered %s passed the warm check: %v", tc.name, err)
			}
			if _, err := f.st.GetResult(context.Background(), key, tc.engine, tc.spec.CacheKey()); !errors.Is(err, store.ErrMiss) {
				t.Fatalf("diverged entry not dropped: %v", err)
			}
		})
	}
}

// TestPlanOldRecordOverwritten: a single-scalar record under the
// pass's key — the shape dewsim and refsim published before they
// shared the planner — reads as a miss, is re-simulated and is
// overwritten by the shared record.
func TestPlanOldRecordOverwritten(t *testing.T) {
	f := newPlanFixture(t)
	p := f.plan("dew", planDewSpec, false, true)
	want, _, err := f.replay(&Plan{Passes: p.Passes}) // no store
	if err != nil {
		t.Fatal(err)
	}
	old := &store.ResultBlob{Engine: "dew", SpecKey: planDewSpec.CacheKey(), Scalars: []uint64{want[0].Accesses}}
	for _, r := range want[0].Results {
		old.Records = append(old.Records, store.ResultRecord{Config: r.Config, Stats: r.Stats})
	}
	if err := f.st.PutResult(context.Background(), f.key(p), old); err != nil {
		t.Fatal(err)
	}
	if live := p.Probe(context.Background()); live != 1 {
		t.Fatalf("old record probed as a hit (%d live)", live)
	}
	if _, ok := p.Cached(0); ok {
		t.Fatal("old record served as cached")
	}
	got, resident, err := f.replay(p)
	if err != nil {
		t.Fatal(err)
	}
	if resident == 0 || got[0].Cached {
		t.Fatal("old record was not re-simulated")
	}
	rb, err := f.st.GetResult(context.Background(), f.key(p), "dew", planDewSpec.CacheKey())
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Scalars) != planScalars {
		t.Fatalf("entry not overwritten: %d scalars", len(rb.Scalars))
	}
}

// TestPlanNoWarmCheckBuildsNoEngine: with WarmCheck false a fully-warm
// plan builds no engine and decodes nothing; with it, exactly the
// sampled pass is rebuilt and reported verified.
func TestPlanNoWarmCheckBuildsNoEngine(t *testing.T) {
	f := newPlanFixture(t)
	cold, resident, err := f.replay(f.plan("plan-count", planDewSpec, false, false))
	if err != nil {
		t.Fatal(err)
	}
	if resident == 0 || cold[0].Cached {
		t.Fatal("cold plan did not simulate")
	}
	before := planBuilds.Load()
	warm, resident, err := f.replay(f.plan("plan-count", planDewSpec, false, false))
	if err != nil {
		t.Fatal(err)
	}
	if n := planBuilds.Load() - before; n != 0 || resident != 0 {
		t.Fatalf("warm plan without the warm check built %d engines (resident bound %d)", n, resident)
	}
	if !warm[0].Cached || warm[0].Verified {
		t.Fatalf("warm pass provenance cached=%v verified=%v", warm[0].Cached, warm[0].Verified)
	}
	checked, _, err := f.replay(f.plan("plan-count", planDewSpec, false, true))
	if err != nil {
		t.Fatal(err)
	}
	if n := planBuilds.Load() - before; n != 1 || !checked[0].Verified {
		t.Fatalf("warm check built %d engines, verified=%v; want 1, true", n, checked[0].Verified)
	}
	for i, r := range cold[0].Results {
		if warm[0].Results[i] != r || checked[0].Results[i] != r {
			t.Fatalf("result %d differs across cold/warm/checked", i)
		}
	}
}
