package engine

import (
	"context"
	"fmt"

	"dew/internal/refsim"
	"dew/internal/store"
	"dew/internal/trace"
)

// planScalars pins the scalar layout of a pass record: [rung accesses,
// rung runs, trace-wide kind totals ×3]. A record with another count
// reads as a miss and is overwritten by the re-simulation.
const planScalars = 5

// Pass is one engine pass of a Plan: the registered engine name and the
// spec it runs.
type Pass struct {
	Engine string
	Spec   Spec
}

// PassResult is one finished pass: its per-configuration results, the
// shape of the rung stream it replayed, the trace-wide kind totals and,
// for a write-policy pass, the reference record. Cached marks a pass
// served from the result tier, Verified a cached pass also re-simulated
// live as the warm check (its results are the verified cached ones).
// Parallel reports whether a live replay really decomposed across
// substreams.
type PassResult struct {
	Results          []Result
	Accesses, Runs   uint64
	KindTotals       [3]uint64
	Ref              *refsim.Stats
	Traffic          *refsim.Traffic
	Cached, Verified bool
	Parallel         bool
}

// Plan is the one result-tier planner for engine passes over a trace:
// it derives every pass's result key, probes the store, picks the
// sampled warm check, validates cached records, verifies the warm check
// against its live re-simulation and publishes finished passes. Every
// tool stores the same record for the same pass — [rung accesses, rung
// runs, kind totals] as scalars, reference statistics and traffic
// exactly when Spec.WriteSim — so a pass one tool published answers
// warm for every other.
//
// Replay drives a whole plan over the span pipeline. A caller with its
// own schedule uses the parts instead: Probe once, then per pass either
// Cached or, for a Live pass, a replay followed by Finish.
type Plan struct {
	// Store is the artifact store; nil (or an empty SourceID) disables
	// the result tier, and every pass is live.
	Store *store.Store
	// SourceID is the content identity of the trace (store.FileID,
	// store.AppID, store.TraceID).
	SourceID string
	// Kinds selects kind-preserving streams: it is part of every key,
	// and the replay accumulates KindTotals.
	Kinds bool
	// WarmCheck re-simulates one sampled cached pass live
	// (store.WarmCheckPick) and fails its Finish on any divergence,
	// dropping the entry.
	WarmCheck bool
	Passes    []Pass
	// KindTotals are the trace-wide per-kind access totals that Finish
	// records and verifies. Replay accumulates them from the spans; a
	// caller with its own schedule sets them before the first Finish.
	// Probe never seeds them from a cached record, so the warm check
	// compares cached totals against live ones.
	KindTotals [3]uint64

	keys  []string
	warm  []*store.ResultBlob
	check int
}

// Probe looks every pass up in the result tier and returns how many
// passes are live: misses plus the warm check. A record of the wrong
// shape reads as a miss; so does a cancelled probe.
func (p *Plan) Probe(ctx context.Context) (live int) {
	p.keys = make([]string, len(p.Passes))
	p.warm = make([]*store.ResultBlob, len(p.Passes))
	p.check = -1
	if p.Store != nil && p.SourceID != "" {
		var hits []int
		var hitKeys []string
		for i, ps := range p.Passes {
			specKey := ps.Spec.CacheKey()
			p.keys[i] = store.ResultKey(store.Key(p.SourceID, ps.Spec.BlockSize, 0, p.Kinds), ps.Engine, specKey)
			rb, err := p.Store.GetResult(ctx, p.keys[i], ps.Engine, specKey)
			if err == nil && len(rb.Scalars) == planScalars && rb.HasRef == ps.Spec.WriteSim && len(rb.Records) > 0 {
				p.warm[i] = rb
				hits = append(hits, i)
				hitKeys = append(hitKeys, p.keys[i])
			}
		}
		if len(hits) > 0 && p.WarmCheck {
			p.check = hits[store.WarmCheckPick(hitKeys)]
		}
	}
	for i := range p.Passes {
		if p.Live(i) {
			live++
		}
	}
	return live
}

// Live reports whether pass i needs an engine replay: it missed, or it
// is the warm check.
func (p *Plan) Live(i int) bool { return p.warm[i] == nil || i == p.check }

// Cached returns pass i's result-tier record, if it hit.
func (p *Plan) Cached(i int) (PassResult, bool) {
	rb := p.warm[i]
	if rb == nil {
		return PassResult{}, false
	}
	r := PassResult{
		Results:    make([]Result, len(rb.Records)),
		Accesses:   rb.Scalars[0],
		Runs:       rb.Scalars[1],
		KindTotals: [3]uint64{rb.Scalars[2], rb.Scalars[3], rb.Scalars[4]},
		Cached:     true,
	}
	for j, rec := range rb.Records {
		r.Results[j] = Result{Config: rec.Config, Stats: rec.Stats}
	}
	if rb.HasRef {
		r.Ref, r.Traffic = rb.Records[0].Ref, rb.Records[0].Traffic
	}
	return r, true
}

// Finish completes live pass i, replayed by eng over a rung stream of
// accesses and runs: the warm check compares it with the cached record
// (a divergence drops the entry and fails), a miss is published,
// best-effort. Safe for concurrent calls on distinct passes.
func (p *Plan) Finish(ctx context.Context, i int, eng Engine, accesses, runs uint64) (PassResult, error) {
	ps := p.Passes[i]
	r := PassResult{
		Results: eng.Results(), Accesses: accesses, Runs: runs,
		KindTotals: p.KindTotals, Parallel: Parallel(eng),
	}
	if ps.Spec.WriteSim {
		if rs, ok := eng.(RefStatser); ok {
			st := rs.RefStats()
			r.Ref = &st
		}
		if ts, ok := eng.(TrafficStatser); ok {
			tr := ts.RefTraffic()
			r.Traffic = &tr
		}
	}
	if p.keys[i] == "" {
		return r, nil
	}
	live := r.blob(ps)
	cached := p.warm[i]
	if cached == nil {
		p.Store.PutResult(ctx, p.keys[i], live) // best-effort: the results are in hand
		return r, nil
	}
	if err := diverges(cached, live); err != nil {
		p.Store.DropResult(p.keys[i])
		return PassResult{}, fmt.Errorf("engine: result cache diverged from live re-simulation at pass B=%d A=%d (entry dropped): %w",
			ps.Spec.BlockSize, ps.Spec.Assoc, err)
	}
	r, _ = p.Cached(i)
	r.Verified = true
	return r, nil
}

// blob is the pass record of r. A write-policy record carries the
// reference section on its one configuration; an engine that cannot
// supply it leaves the record unpublishable (MarshalBinary refuses it).
func (r *PassResult) blob(ps Pass) *store.ResultBlob {
	rb := &store.ResultBlob{
		Engine: ps.Engine, SpecKey: ps.Spec.CacheKey(), HasRef: ps.Spec.WriteSim,
		Scalars: []uint64{r.Accesses, r.Runs, r.KindTotals[0], r.KindTotals[1], r.KindTotals[2]},
		Records: make([]store.ResultRecord, len(r.Results)),
	}
	for j, res := range r.Results {
		rb.Records[j] = store.ResultRecord{Config: res.Config, Stats: res.Stats}
	}
	if ps.Spec.WriteSim && len(r.Results) == 1 {
		rb.Records[0].Ref, rb.Records[0].Traffic = r.Ref, r.Traffic
	}
	return rb
}

// diverges compares a cached record with its live re-simulation: the
// rung's stream shape, the kind totals and every configuration's
// outcome, reference section included, must agree exactly.
func diverges(cached, live *store.ResultBlob) error {
	c, l := cached.Scalars, live.Scalars
	if c[0] != l[0] || c[1] != l[1] {
		return fmt.Errorf("stream shape differs: cached %d accesses/%d runs, live %d/%d", c[0], c[1], l[0], l[1])
	}
	if c[2] != l[2] || c[3] != l[3] || c[4] != l[4] {
		return fmt.Errorf("kind totals differ: cached %v, live %v", c[2:], l[2:])
	}
	if len(cached.Records) != len(live.Records) {
		return fmt.Errorf("configuration counts differ: cached %d, live %d", len(cached.Records), len(live.Records))
	}
	for j, lr := range live.Records {
		cr := cached.Records[j]
		if cr.Config != lr.Config || cr.Stats != lr.Stats ||
			cached.HasRef && (lr.Ref == nil || lr.Traffic == nil || *cr.Ref != *lr.Ref || *cr.Traffic != *lr.Traffic) {
			return fmt.Errorf("results differ at %v", lr.Config)
		}
	}
	return nil
}

// Spans configures Plan.Replay's span pipeline.
type Spans struct {
	// Blocks is the fold ladder, ascending; Blocks[0] is the decode
	// rung. Every pass's block size must be a rung.
	Blocks []int
	// ShardLog splits every span into 2^ShardLog set-substreams;
	// negative replays unsharded.
	ShardLog int
	// Workers bounds the rungs replayed concurrently and every live
	// pass's sharded fan-out (Spec.Workers); 0 means GOMAXPROCS.
	Workers int
	// Decode starts the decode pipeline at Blocks[0]; its span budget
	// is the caller's.
	Decode func() (*trace.StreamPipeline, error)
}

// Replay runs the plan on the span pipeline: it probes (unless the
// caller already did), builds every live pass's engine before any
// stream work, decodes the trace into spans, replays them through one
// SpanLadder and finishes each pass, returning every pass's result in
// plan order and, for provenance, the pipeline's enforced
// resident-stream bound in bytes. The bound is 0 when every pass came
// from the result tier: nothing was decoded or simulated.
//
// Each span is released back to the pipeline once the ladder has
// folded and replayed it (Feed is synchronous), so the pipeline
// recycles its buffers.
func (p *Plan) Replay(ctx context.Context, sp Spans) ([]PassResult, int64, error) {
	if p.warm == nil {
		p.Probe(ctx)
	}
	out := make([]PassResult, len(p.Passes))
	engs := make([]Engine, len(p.Passes))
	byBlock := make(map[int][]Engine, len(sp.Blocks))
	for i, ps := range p.Passes {
		if !p.Live(i) {
			out[i], _ = p.Cached(i)
			continue
		}
		spec := ps.Spec
		spec.Workers = sp.Workers
		e, err := New(ps.Engine, spec)
		if err != nil {
			return nil, 0, err
		}
		engs[i] = e
		byBlock[spec.BlockSize] = append(byBlock[spec.BlockSize], e)
	}
	if len(byBlock) == 0 {
		return out, 0, nil
	}
	ladder, err := NewSpanLadder(sp.Blocks[0], sp.Blocks, p.Kinds, sp.ShardLog, sp.Workers, byBlock)
	if err != nil {
		return nil, 0, err
	}
	pl, err := sp.Decode()
	if err != nil {
		return nil, 0, err
	}
	defer pl.Close()
	for s := range pl.Spans() {
		if err := ladder.Feed(ctx, &s.BlockStream); err != nil {
			return nil, 0, err
		}
		pl.Release(s)
	}
	if err := pl.Err(); err != nil {
		return nil, 0, err
	}
	// Folding preserves per-kind weights exactly, so the decode's
	// totals are the trace-wide totals.
	p.KindTotals = [3]uint64{}
	if p.Kinds {
		p.KindTotals = pl.KindTotals()
	}
	if err := ladder.Flush(ctx); err != nil {
		return nil, 0, err
	}
	for i, ps := range p.Passes {
		if engs[i] == nil {
			continue
		}
		acc, runs := ladder.Shape(ps.Spec.BlockSize)
		if out[i], err = p.Finish(ctx, i, engs[i], acc, runs); err != nil {
			return nil, 0, err
		}
	}
	return out, pl.ResidentBound(), nil
}
