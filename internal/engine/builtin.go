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
// The two tree engines share one adapter (treeEngine), and with it one
// set-sharded pass (shardedPass).
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
	treeEngine[core.Result]
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
		e.treeEngine = treeEngine[core.Result]{spec: spec, build: newCore, buildMono: e.wide}
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

// newCore builds a DEW simulator for spec. Like newTree and wide, it
// returns a nil treeSim on error, never a typed nil pointer.
func newCore(spec Spec) (treeSim[core.Result], error) {
	s, err := core.New(coreOptions(spec))
	if err != nil {
		return nil, err
	}
	return s, nil
}

// wide builds the monolithic simulator with arenas for the engine's
// widest pass, bound to spec.
func (e *dewEngine) wide(spec Spec) (treeSim[core.Result], error) {
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
	return s, nil
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
		e.mono != nil && e.mono.(*core.Simulator).Rebind(opt) != nil {
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
	e.mono.(*core.Simulator).Prefault()
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
	treeEngine[lrutree.Result]
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
	return &lruEngine{treeEngine[lrutree.Result]{spec: spec, build: newTree, buildMono: newTree}}, nil
}

// treeOptions is the LRU tree pass of a spec.
func treeOptions(spec Spec) lrutree.Options {
	return lrutree.Options{
		MinLogSets: spec.MinLogSets, MaxLogSets: spec.MaxLogSets,
		Assoc: spec.Assoc, BlockSize: spec.BlockSize,
	}
}

func newTree(spec Spec) (treeSim[lrutree.Result], error) {
	s, err := lrutree.New(treeOptions(spec))
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Rebind implements Rebinder: the monolithic simulator keeps its
// arenas across block sizes, the only axis besides the worker count
// that may change.
func (e *lruEngine) Rebind(spec Spec) bool {
	if !sameArenas(e.spec, spec) || e.mono != nil && e.mono.(*lrutree.Simulator).Rebind(spec.BlockSize) != nil {
		return false
	}
	e.rebind(spec)
	return true
}

// refEngine adapts the reference simulator: one configuration per
// engine (MinLogSets == MaxLogSets), with refsim.Sharded supplying the
// set-substream parallel replay and its exact monolithic fallback. In
// write-policy mode (Spec.WriteSim) the backends are built
// fully-parameterized, maintain memory traffic, and need
// kind-preserving streams.
type refEngine struct {
	cfg cache.Config
	// capCfg is the configuration the engine was built for: the arenas
	// its monolithic simulator allocates, whatever configuration it was
	// rebound to first (see Rebind).
	capCfg   cache.Config
	policy   cache.Policy
	workers  int
	writeSim bool
	opts     refsim.Options
	mono     *refsim.Simulator
	sharded  *refsim.Sharded
	// last selects which backend's stats Results reads: 0 none,
	// 1 mono, 2 sharded.
	last int
}

func newRefEngine(spec Spec) (Engine, error) {
	if spec.MinLogSets != spec.MaxLogSets {
		return nil, fmt.Errorf("engine: ref simulates one configuration per pass; MinLogSets %d != MaxLogSets %d",
			spec.MinLogSets, spec.MaxLogSets)
	}
	cfg, err := cache.NewConfig(1<<spec.MinLogSets, spec.Assoc, spec.BlockSize)
	if err != nil {
		return nil, err
	}
	e := &refEngine{cfg: cfg, capCfg: cfg, policy: spec.Policy, workers: spec.Workers, writeSim: spec.WriteSim}
	if spec.WriteSim {
		if spec.StoreBytes < 0 {
			return nil, fmt.Errorf("engine: negative store width %d", spec.StoreBytes)
		}
		e.opts = refsim.Options{
			Config: cfg, Replacement: spec.Policy,
			Write: spec.Write, Alloc: spec.Alloc, StoreBytes: spec.StoreBytes,
		}
	}
	return e, nil
}

// Rebind implements Rebinder: a one-configuration spec in the
// engine's write-policy mode (and, in that mode, with its write, alloc
// and store-width axes) is accepted when it fits the arenas of the
// configuration the engine was built for — no more sets, no more ways
// in all — and, once the monolithic simulator exists, the simulator
// takes it (refsim.Simulator.Rebind; an LRU spec needs a simulator
// that has LRU recency arenas). The sharded backend, whose sub-caches
// are sized by the configuration, is dropped and rebuilt on demand.
func (e *refEngine) Rebind(spec Spec) bool {
	if spec.MinLogSets != spec.MaxLogSets || spec.WriteSim != e.writeSim ||
		spec.WriteSim && (spec.Write != e.opts.Write || spec.Alloc != e.opts.Alloc || spec.StoreBytes != e.opts.StoreBytes) {
		return false
	}
	cfg, err := cache.NewConfig(1<<spec.MinLogSets, spec.Assoc, spec.BlockSize)
	if err != nil || cfg.Sets > e.capCfg.Sets || cfg.Sets*cfg.Assoc > e.capCfg.Sets*e.capCfg.Assoc ||
		e.mono != nil && e.mono.Rebind(cfg, spec.Policy) != nil {
		return false
	}
	e.cfg, e.policy, e.workers = cfg, spec.Policy, spec.Workers
	e.opts.Config, e.opts.Replacement = cfg, spec.Policy
	e.sharded, e.last = nil, 0
	return true
}

// monolithic builds the monolithic simulator on first use, with arenas
// for the configuration the engine was built for, bound to its current
// one.
func (e *refEngine) monolithic() error {
	if e.mono != nil {
		return nil
	}
	var mono *refsim.Simulator
	var err error
	if e.writeSim {
		wide := e.opts
		wide.Config = e.capCfg
		mono, err = refsim.NewSim(wide)
	} else {
		mono, err = refsim.New(e.capCfg, e.policy)
	}
	if err == nil && e.cfg != e.capCfg {
		err = mono.Rebind(e.cfg, e.policy)
	}
	if err != nil {
		return err
	}
	e.mono = mono
	return nil
}

// Prepare implements Preparer: it builds the monolithic simulator and
// writes its arenas once. An engine that has replayed already keeps its
// state.
func (e *refEngine) Prepare() error {
	if e.mono != nil {
		return nil
	}
	err := e.monolithic()
	if err == nil {
		e.mono.Prefault()
	}
	return err
}

func (e *refEngine) SimulateStream(bs *trace.BlockStream) error {
	if err := e.monolithic(); err != nil {
		return err
	}
	e.last = 1
	_, err := e.mono.SimulateStream(bs)
	return err
}

func (e *refEngine) SimulateSharded(ctx context.Context, ss *trace.ShardStream) error {
	if e.sharded == nil || e.sharded.ShardLog() != ss.Log {
		var err error
		if e.writeSim {
			e.sharded, err = refsim.NewShardedSim(e.opts, ss.Log, e.workers)
		} else {
			e.sharded, err = refsim.NewSharded(e.cfg, e.policy, ss.Log, e.workers)
		}
		if err != nil {
			return err
		}
	}
	e.last = 2
	_, err := e.sharded.SimulateStream(ctx, ss)
	return err
}

func (e *refEngine) Reset() {
	if e.mono != nil {
		e.mono.Reset()
	}
	if e.sharded != nil {
		e.sharded.Reset()
	}
	e.last = 0
}

// RefStats implements RefStatser with the full Dinero-style record.
func (e *refEngine) RefStats() refsim.Stats {
	switch e.last {
	case 1:
		return e.mono.Stats()
	case 2:
		return e.sharded.Stats()
	default:
		return refsim.Stats{}
	}
}

// RefTraffic implements TrafficStatser; zero unless the engine was
// built in write-policy mode.
func (e *refEngine) RefTraffic() refsim.Traffic {
	switch e.last {
	case 1:
		return e.mono.Traffic()
	case 2:
		return e.sharded.Traffic()
	default:
		return refsim.Traffic{}
	}
}

// Parallel reports whether the last sharded replay really decomposed
// across substreams (false after a monolithic fallback or stream
// replay).
func (e *refEngine) Parallel() bool {
	return e.last == 2 && e.sharded.Parallel()
}

func (e *refEngine) Results() []Result {
	if e.last == 0 {
		return nil
	}
	st := e.RefStats()
	return []Result{{Config: e.cfg, Stats: st.Stats}}
}
