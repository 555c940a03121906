package engine

import (
	"context"
	"fmt"

	"dew/internal/cache"
	"dew/internal/core"
	"dew/internal/lrutree"
	"dew/internal/refsim"
	"dew/internal/trace"
)

// The built-in engines: the three simulators of this repository, each
// one registration. Tools resolve them by name, so a new simulator (or
// policy specialization) becomes available everywhere by registering
// here.
//
//   - dew: the DEW multi-configuration tree pass for FIFO; an LRU spec
//     resolves to the lrutree pass.
//   - lrutree: the Janapsatya-style LRU simulation tree pass.
//   - ref: the Dinero-style single-configuration reference simulator
//     (MinLogSets = MaxLogSets).
//
// All three share one adapter (tree.go), and with it one set-sharded
// pass (shardedPass); each wraps its simulator to serve the records
// the pass stitches.
func init() {
	Register("dew", "", newDewEngine)
	Register("lrutree", "", newLRUEngine)
	Register("ref", "", newRefEngine)
}

// dewEngine adapts the DEW core to FIFO passes. Its monolithic
// simulator's arenas are sized for the spec the engine was built for,
// even when a narrower spec was rebound before the first replay, so
// every spec Rebind accepts fits them.
type dewEngine struct {
	adapter[Result]
	// maxAssoc is the associativity the engine was built for: the
	// widest pass its arenas hold (see Rebind).
	maxAssoc int
}

// newDewEngine builds the DEW engine for a FIFO spec and hands an LRU
// spec to the lrutree engine, which simulates LRU exactly in one pass.
// Either way the spec is validated as a DEW pass first, so the error
// texts do not depend on the policy.
func newDewEngine(spec Spec) (Engine, error) {
	if spec.WriteSim {
		return nil, fmt.Errorf("engine: dew does not simulate write policies; use ref")
	}
	if err := coreOptions(spec).Validate(); err != nil {
		return nil, err
	}
	switch spec.Policy {
	case cache.FIFO:
		e := &dewEngine{maxAssoc: spec.Assoc}
		e.adapter = adapter[Result]{spec: spec, build: newCore, buildMono: e.wide}
		return e, nil
	case cache.LRU:
		return newLRUEngine(spec)
	}
	return nil, fmt.Errorf("core: unsupported replacement policy %v (FIFO and LRU only)", spec.Policy)
}

// coreOptions is the DEW pass of a spec.
func coreOptions(spec Spec) core.Options {
	return core.Options{
		MinLogSets: spec.MinLogSets, MaxLogSets: spec.MaxLogSets,
		Assoc: spec.Assoc, BlockSize: spec.BlockSize,
	}
}

// coreSim serves a DEW simulator's results as engine Results.
type coreSim struct{ *core.Simulator }

func (s coreSim) Results() []Result { return results(s.Simulator.Results()) }

// newCore builds a DEW simulator for spec.
func newCore(spec Spec) (sim[Result], error) {
	s, err := core.New(coreOptions(spec))
	if err != nil {
		return nil, err
	}
	return coreSim{s}, nil
}

// wide builds the monolithic simulator with arenas for the engine's
// widest pass, bound to spec.
func (e *dewEngine) wide(spec Spec) (sim[Result], error) {
	opt := coreOptions(spec)
	wide := opt
	wide.Assoc = e.maxAssoc
	s, err := core.New(wide)
	if err == nil && wide != opt {
		err = s.Rebind(opt)
	}
	if err != nil {
		return nil, err
	}
	return coreSim{s}, nil
}

// Rebind implements Rebinder: any kind-free FIFO spec over the engine's
// set-count range whose associativity is at most the one the engine
// was built for — the monolithic simulator's arena capacity
// (core.Simulator.Rebind) — is accepted, the simulator keeping its
// arenas.
func (e *dewEngine) Rebind(spec Spec) bool {
	opt := coreOptions(spec)
	if spec.WriteSim || spec.Policy != cache.FIFO || opt.Validate() != nil ||
		spec.MinLogSets != e.spec.MinLogSets || spec.MaxLogSets != e.spec.MaxLogSets ||
		spec.Assoc > e.maxAssoc ||
		e.mono != nil && e.mono.(coreSim).Rebind(opt) != nil {
		return false
	}
	e.rebind(spec)
	return true
}

// Prepare implements Preparer: it builds the monolithic simulator and
// writes its arenas once. An engine that has replayed already keeps its
// state.
func (e *dewEngine) Prepare() error {
	if e.mono != nil {
		return nil
	}
	if err := e.monolithic(); err != nil {
		return err
	}
	e.mono.(coreSim).Prefault()
	return nil
}

// sameArenas reports whether a pass built for spec a can run spec b on
// the same arenas: only the block size (a valid one) and the worker
// count may differ.
func sameArenas(a, b Spec) bool {
	a.BlockSize, a.Workers = b.BlockSize, b.Workers
	return a == b && b.BlockSize > 0 && b.BlockSize&(b.BlockSize-1) == 0
}

// lruEngine adapts the LRU simulation tree.
type lruEngine struct {
	adapter[Result]
}

func newLRUEngine(spec Spec) (Engine, error) {
	if spec.Policy != cache.LRU {
		return nil, fmt.Errorf("engine: lrutree simulates LRU only, got %v", spec.Policy)
	}
	if spec.WriteSim {
		return nil, fmt.Errorf("engine: lrutree does not simulate write policies; use ref")
	}
	if err := treeOptions(spec).Validate(); err != nil {
		return nil, err
	}
	return &lruEngine{adapter[Result]{spec: spec, build: newTree, buildMono: newTree}}, nil
}

// treeOptions is the LRU tree pass of a spec.
func treeOptions(spec Spec) lrutree.Options {
	return lrutree.Options{
		MinLogSets: spec.MinLogSets, MaxLogSets: spec.MaxLogSets,
		Assoc: spec.Assoc, BlockSize: spec.BlockSize,
	}
}

// lruSim serves an LRU tree simulator's results as engine Results.
type lruSim struct{ *lrutree.Simulator }

func (s lruSim) Results() []Result { return results(s.Simulator.Results()) }

func newTree(spec Spec) (sim[Result], error) {
	s, err := lrutree.New(treeOptions(spec))
	if err != nil {
		return nil, err
	}
	return lruSim{s}, nil
}

// Rebind implements Rebinder: the monolithic simulator keeps its
// arenas across block sizes, the only axis besides the worker count
// that may change.
func (e *lruEngine) Rebind(spec Spec) bool {
	if !sameArenas(e.spec, spec) || e.mono != nil && e.mono.(lruSim).Rebind(spec.BlockSize) != nil {
		return false
	}
	e.rebind(spec)
	return true
}

// refEngine adapts the reference simulator: one configuration per
// engine (MinLogSets == MaxLogSets). In write-policy mode
// (Spec.WriteSim) its simulators are built fully-parameterized,
// maintain memory traffic, and need kind-preserving streams.
type refEngine struct {
	adapter[refRecord]
	// capCfg is the configuration the engine was built for: the arenas
	// its monolithic simulator allocates, whatever configuration it was
	// rebound to first (see Rebind).
	capCfg cache.Config
}

// refRecord is the reference engine's per-configuration record: the
// full Dinero-style statistics and the memory traffic.
type refRecord struct {
	Config  cache.Config
	Stats   refsim.Stats
	Traffic refsim.Traffic
}

// The reference engine's stitch: every statistic and traffic counter
// is a sum of per-set contributions.
func (r refRecord) plus(o refRecord) refRecord {
	r.Stats.Accesses += o.Stats.Accesses
	r.Stats.Misses += o.Stats.Misses
	for k := range r.Stats.AccessesByKind {
		r.Stats.AccessesByKind[k] += o.Stats.AccessesByKind[k]
		r.Stats.MissesByKind[k] += o.Stats.MissesByKind[k]
	}
	r.Stats.CompulsoryMisses += o.Stats.CompulsoryMisses
	r.Stats.Evictions += o.Stats.Evictions
	r.Stats.TagComparisons += o.Stats.TagComparisons
	r.Traffic.BytesFromMemory += o.Traffic.BytesFromMemory
	r.Traffic.BytesToMemory += o.Traffic.BytesToMemory
	r.Traffic.Writebacks += o.Traffic.Writebacks
	return r
}

func (r refRecord) unshard(log int) refRecord {
	r.Config = unshard(r.Config, log)
	return r
}

func (r refRecord) result() Result { return Result{Config: r.Config, Stats: r.Stats.Stats} }

// refSim serves a reference simulator's full record.
type refSim struct{ *refsim.Simulator }

func (s refSim) SimulateStream(bs *trace.BlockStream) error {
	_, err := s.Simulator.SimulateStream(bs)
	return err
}

func (s refSim) Results() []refRecord {
	return []refRecord{{Config: s.Config(), Stats: s.Stats(), Traffic: s.Traffic()}}
}

// refConfig is the one configuration of a reference spec.
func refConfig(spec Spec) (cache.Config, error) {
	return cache.NewConfig(1<<spec.MinLogSets, spec.Assoc, spec.BlockSize)
}

// refOptions is the write-policy simulation of a spec at cfg.
func refOptions(spec Spec, cfg cache.Config) refsim.Options {
	return refsim.Options{Config: cfg, Replacement: spec.Policy,
		Write: spec.Write, Alloc: spec.Alloc, StoreBytes: spec.StoreBytes}
}

func newRefEngine(spec Spec) (Engine, error) {
	if spec.MinLogSets != spec.MaxLogSets {
		return nil, fmt.Errorf("engine: ref simulates one configuration per pass; MinLogSets %d != MaxLogSets %d",
			spec.MinLogSets, spec.MaxLogSets)
	}
	cfg, err := refConfig(spec)
	if err != nil {
		return nil, err
	}
	if spec.WriteSim && spec.StoreBytes < 0 {
		return nil, fmt.Errorf("engine: negative store width %d", spec.StoreBytes)
	}
	e := &refEngine{capCfg: cfg}
	e.adapter = adapter[refRecord]{spec: spec, build: e.shard, buildMono: e.wide}
	return e, nil
}

// wide builds the monolithic simulator with arenas for the
// configuration the engine was built for, bound to spec's.
func (e *refEngine) wide(spec Spec) (sim[refRecord], error) {
	cfg, err := refConfig(spec)
	if err != nil {
		return nil, err
	}
	var s *refsim.Simulator
	if spec.WriteSim {
		s, err = refsim.NewSim(refOptions(spec, e.capCfg))
	} else {
		s, err = refsim.New(e.capCfg, spec.Policy)
	}
	if err == nil && cfg != e.capCfg {
		err = s.Rebind(cfg, spec.Policy)
	}
	if err != nil {
		return nil, err
	}
	return refSim{s}, nil
}

// shard builds one sub-cache of the sharded pass for its tree-local
// spec; in write-policy mode fills and writebacks are charged at the
// engine's block size (refsim.NewShardSim).
func (e *refEngine) shard(spec Spec) (sim[refRecord], error) {
	cfg, err := refConfig(spec)
	if err != nil {
		return nil, err
	}
	var s *refsim.Simulator
	if spec.WriteSim {
		s, err = refsim.NewShardSim(refOptions(spec, cfg), e.spec.BlockSize)
	} else {
		s, err = refsim.New(cfg, spec.Policy)
	}
	if err != nil {
		return nil, err
	}
	return refSim{s}, nil
}

// Rebind implements Rebinder: a one-configuration spec in the
// engine's write-policy mode (and, in that mode, with its write, alloc
// and store-width axes) is accepted when it fits the arenas of the
// configuration the engine was built for — no more sets, no more ways
// in all — and, once the monolithic simulator exists, the simulator
// takes it (refsim.Simulator.Rebind; an LRU spec needs a simulator
// that has LRU recency arenas).
func (e *refEngine) Rebind(spec Spec) bool {
	if spec.MinLogSets != spec.MaxLogSets || spec.WriteSim != e.spec.WriteSim ||
		spec.WriteSim && (spec.Write != e.spec.Write || spec.Alloc != e.spec.Alloc || spec.StoreBytes != e.spec.StoreBytes) {
		return false
	}
	cfg, err := refConfig(spec)
	if err != nil || cfg.Sets > e.capCfg.Sets || cfg.Sets*cfg.Assoc > e.capCfg.Sets*e.capCfg.Assoc ||
		e.mono != nil && e.mono.(refSim).Rebind(cfg, spec.Policy) != nil {
		return false
	}
	e.rebind(spec)
	return true
}

// Prepare implements Preparer: it builds the monolithic simulator and
// writes its arenas once. An engine that has replayed already keeps its
// state.
func (e *refEngine) Prepare() error {
	if e.mono != nil {
		return nil
	}
	if err := e.monolithic(); err != nil {
		return err
	}
	e.mono.(refSim).Prefault()
	return nil
}

// SimulateSharded replays the partition through the sharded pass, or
// ss.Source through the monolithic simulator where sets do not
// decompose: under Random replacement, whose one replacement stream
// spans every set (splitting the replay would reorder its draws), and
// for configurations with fewer than 2^S sets.
func (e *refEngine) SimulateSharded(ctx context.Context, ss *trace.ShardStream) error {
	if e.spec.Policy == cache.Random || ss.Log > e.spec.MaxLogSets {
		if err := ctx.Err(); err != nil {
			return err
		}
		return e.SimulateStream(ss.Source)
	}
	return e.adapter.SimulateSharded(ctx, ss)
}

// record is the record of the last replay; zero before any.
func (e *refEngine) record() refRecord {
	if recs := e.records(); recs != nil {
		return recs[0]
	}
	return refRecord{}
}

// RefStats implements RefStatser with the full Dinero-style record.
func (e *refEngine) RefStats() refsim.Stats { return e.record().Stats }

// RefTraffic implements TrafficStatser; zero unless the engine was
// built in write-policy mode.
func (e *refEngine) RefTraffic() refsim.Traffic { return e.record().Traffic }

// Parallel reports whether the last replay really decomposed across
// substreams (false after a monolithic fallback or stream replay).
func (e *refEngine) Parallel() bool {
	return e.sharded != nil && e.last == e.sharded
}
