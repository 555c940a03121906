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
func init() {
	Register("dew", "", newDewEngine)
	Register("lrutree", "", newTreeEngine)
	Register("ref", "", newRefEngine)
}

// dewEngine adapts the DEW core to FIFO passes: a monolithic
// core.Simulator for stream replay and a core.Sharded for sharded
// replay, built lazily so one engine only allocates the arenas it uses. The monolithic arenas
// are sized for the spec the engine was built for, even when a narrower
// spec was rebound before the first replay, so every spec Rebind
// accepts fits them.
type dewEngine struct {
	spec Spec
	opt  core.Options
	// maxAssoc is the associativity the engine was built for: the
	// widest pass its arenas hold (see Rebind).
	maxAssoc int
	mono     *core.Simulator
	sharded  *core.Sharded
	// last points at the backend that ran most recently; Results and
	// Accesses read it.
	last interface {
		Results() []core.Result
	}
}

// newDewEngine builds the DEW engine for a FIFO spec and hands an LRU
// spec to the lrutree engine, which simulates LRU exactly in one pass.
// Either way the spec is validated as a DEW pass first, so the error
// texts do not depend on the policy.
func newDewEngine(spec Spec) (Engine, error) {
	if spec.WriteSim {
		return nil, fmt.Errorf("engine: dew does not simulate write policies; use ref")
	}
	opt := core.Options{
		MinLogSets: spec.MinLogSets, MaxLogSets: spec.MaxLogSets,
		Assoc: spec.Assoc, BlockSize: spec.BlockSize,
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	switch spec.Policy {
	case cache.FIFO:
		return &dewEngine{spec: spec, opt: opt, maxAssoc: spec.Assoc}, nil
	case cache.LRU:
		return newTreeEngine(spec)
	}
	return nil, fmt.Errorf("core: unsupported replacement policy %v (FIFO and LRU only)", spec.Policy)
}

// sameArenas reports whether a pass built for spec a can run spec b on
// the same arenas: only the block size (a valid one) and the worker
// count may differ.
func sameArenas(a, b Spec) bool {
	a.BlockSize, a.Workers = b.BlockSize, b.Workers
	return a == b && b.BlockSize > 0 && b.BlockSize&(b.BlockSize-1) == 0
}

// Rebind implements Rebinder: any kind-free FIFO spec over the engine's
// set-count range whose associativity is at most the one the
// engine was built for — the monolithic simulator's arena capacity
// (core.Simulator.Rebind) — is accepted, the simulator keeping its
// arenas; a sharded backend, whose tree shapes depend on the block
// size, is dropped and rebuilt on demand.
func (e *dewEngine) Rebind(spec Spec) bool {
	opt := core.Options{
		MinLogSets: spec.MinLogSets, MaxLogSets: spec.MaxLogSets,
		Assoc: spec.Assoc, BlockSize: spec.BlockSize,
	}
	if spec.WriteSim || spec.Policy != cache.FIFO || opt.Validate() != nil ||
		opt.MinLogSets != e.opt.MinLogSets || opt.MaxLogSets != e.opt.MaxLogSets ||
		opt.Assoc > e.maxAssoc ||
		e.mono != nil && e.mono.Rebind(opt) != nil {
		return false
	}
	e.spec, e.opt = spec, opt
	e.sharded, e.last = nil, nil
	return true
}

// monolithic builds the monolithic simulator on first use, with arenas
// for the engine's widest pass, bound to its current spec.
func (e *dewEngine) monolithic() error {
	if e.mono != nil {
		return nil
	}
	wide := e.opt
	wide.Assoc = e.maxAssoc
	mono, err := core.New(wide)
	if err == nil && wide != e.opt {
		err = mono.Rebind(e.opt)
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
func (e *dewEngine) Prepare() error {
	if e.mono != nil {
		return nil
	}
	err := e.monolithic()
	if err == nil {
		e.mono.Prefault()
	}
	return err
}

func (e *dewEngine) SimulateStream(bs *trace.BlockStream) error {
	if err := e.monolithic(); err != nil {
		return err
	}
	e.last = e.mono
	return e.mono.SimulateStream(bs)
}

func (e *dewEngine) SimulateSharded(ctx context.Context, ss *trace.ShardStream) error {
	if e.sharded == nil || e.sharded.ShardLog() != ss.Log {
		var err error
		if e.sharded, err = core.NewSharded(e.opt, ss.Log, e.spec.Workers); err != nil {
			return err
		}
	}
	e.last = e.sharded
	return e.sharded.SimulateStream(ctx, ss)
}

func (e *dewEngine) Reset() {
	if e.mono != nil {
		e.mono.Reset()
	}
	if e.sharded != nil {
		e.sharded.Reset()
	}
	e.last = nil
}

func (e *dewEngine) Results() []Result {
	if e.last == nil {
		return nil
	}
	return convertResults(e.last.Results())
}

func (e *dewEngine) Accesses() uint64 {
	switch {
	case e.last == nil:
		return 0
	case e.last == e.sharded:
		return e.sharded.Accesses()
	default:
		return e.mono.Counters().Accesses
	}
}

// treeEngine adapts the LRU simulation tree the same way.
type treeEngine struct {
	spec    Spec
	opt     lrutree.Options
	mono    *lrutree.Simulator
	sharded *lrutree.Sharded
	last    interface {
		Results() []lrutree.Result
	}
}

func newTreeEngine(spec Spec) (Engine, error) {
	if spec.Policy != cache.LRU {
		return nil, fmt.Errorf("engine: lrutree simulates LRU only, got %v", spec.Policy)
	}
	if spec.WriteSim {
		return nil, fmt.Errorf("engine: lrutree does not simulate write policies; use ref")
	}
	opt := lrutree.Options{
		MinLogSets: spec.MinLogSets, MaxLogSets: spec.MaxLogSets,
		Assoc: spec.Assoc, BlockSize: spec.BlockSize,
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return &treeEngine{spec: spec, opt: opt}, nil
}

// Rebind implements Rebinder: the monolithic simulator keeps its
// arenas across block sizes (the only axis besides the worker count
// that may change); a sharded backend, whose tree shapes depend on the
// block size, is dropped and rebuilt on demand.
func (e *treeEngine) Rebind(spec Spec) bool {
	if !sameArenas(e.spec, spec) || e.mono != nil && e.mono.Rebind(spec.BlockSize) != nil {
		return false
	}
	e.spec, e.opt.BlockSize = spec, spec.BlockSize
	e.sharded, e.last = nil, nil
	return true
}

func (e *treeEngine) SimulateStream(bs *trace.BlockStream) error {
	if e.mono == nil {
		var err error
		if e.mono, err = lrutree.New(e.opt); err != nil {
			return err
		}
	}
	e.last = e.mono
	return e.mono.SimulateStream(bs)
}

func (e *treeEngine) SimulateSharded(ctx context.Context, ss *trace.ShardStream) error {
	if e.sharded == nil || e.sharded.ShardLog() != ss.Log {
		var err error
		if e.sharded, err = lrutree.NewSharded(e.opt, ss.Log, e.spec.Workers); err != nil {
			return err
		}
	}
	e.last = e.sharded
	return e.sharded.SimulateStream(ctx, ss)
}

func (e *treeEngine) Reset() {
	if e.mono != nil {
		e.mono.Reset()
	}
	if e.sharded != nil {
		e.sharded.Reset()
	}
	e.last = nil
}

func (e *treeEngine) Results() []Result {
	if e.last == nil {
		return nil
	}
	return convertTreeResults(e.last.Results())
}

func (e *treeEngine) Accesses() uint64 {
	switch {
	case e.last == nil:
		return 0
	case e.last == e.sharded:
		return e.sharded.Accesses()
	default:
		return e.mono.Counters().Accesses
	}
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

func (e *refEngine) Accesses() uint64 { return e.RefStats().Accesses }

func convertResults(in []core.Result) []Result {
	out := make([]Result, len(in))
	for i, r := range in {
		out[i] = Result(r)
	}
	return out
}

func convertTreeResults(in []lrutree.Result) []Result {
	out := make([]Result, len(in))
	for i, r := range in {
		out[i] = Result(r)
	}
	return out
}
