// Package engine unifies the repository's trace-driven simulators —
// the DEW core (FIFO/LRU multi-configuration tree pass), the LRU
// simulation tree, and the Dinero-style reference simulator — behind
// one replay interface, so the design-space layers (sweep, explore,
// the CLI tools) drive every pass through a single dispatch seam
// instead of re-implementing the stream-vs-sharded switch per
// simulator and per call site.
//
// An Engine replays immutable trace streams: SimulateStream consumes a
// run-compressed trace.BlockStream monolithically, SimulateSharded
// consumes a trace.ShardStream with the pass's internal parallelism
// fanned out across the partition's substreams. How the stream came to
// be is not the engine's concern — a directly materialized stream, a
// fold-derived rung of a block-size ladder (trace.FoldBlockStream) and
// the per-span shard partitions of a streamed pass replay to
// bit-identical results, so the frontends choose the cheapest
// construction and the engine contract only sees BlockSize-consistent
// columns. The same property makes SimulateStream the streaming seam:
// feeding the spans of a bounded trace.StreamPipeline one by one
// accumulates results bit-identical to one whole-stream call, so the
// design-space layers replay traces larger than RAM with decode
// overlapped against simulation. SpanLadder is the one driver of that
// seam: it folds each span into every rung of a block-size ladder and
// replays the rungs concurrently, each rung's engines in order. Both replay kinds accumulate
// into the same per-configuration results; Reset rewinds to the
// freshly built state reusing the arenas. Replays of either kind must be
// bit-identical: an engine that cannot decompose a configuration
// exactly is expected to fall back to an exact monolithic replay
// inside SimulateSharded (the reference engine does this for Random
// replacement and for configurations with fewer sets than shards),
// never to approximate.
//
// Engines register themselves by name in a package-level registry
// (Register/New/Names); adding a policy or pass variant is one
// registration, and every engine-driven tool picks it up without new
// call sites. The interface carries the statistics every simulator
// shares (cache.Stats per configuration); engines with richer
// statistics expose them through optional interfaces the caller can
// type-assert — see RefStatser.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"dew/internal/cache"
	"dew/internal/core"
	"dew/internal/refsim"
	"dew/internal/trace"
)

// Spec describes one pass: the set-count range 2^MinLogSets..
// 2^MaxLogSets at one associativity and block size under one
// replacement policy. Multi-configuration engines cover the whole
// range (plus direct-mapped results) in one replay; single-
// configuration engines require MinLogSets == MaxLogSets.
type Spec struct {
	// MinLogSets and MaxLogSets bound the simulated set counts as log2.
	MinLogSets, MaxLogSets int
	// Assoc is the associativity (power of two).
	Assoc int
	// BlockSize is the block size in bytes (power of two).
	BlockSize int
	// Policy is the replacement policy. Engines reject policies they
	// cannot simulate exactly.
	Policy cache.Policy
	// Workers bounds the goroutines a sharded replay fans out across;
	// 0 means GOMAXPROCS. Monolithic replays ignore it.
	Workers int

	// WriteSim selects write-policy simulation: the pass honors Write,
	// Alloc and StoreBytes, consumes kind-preserving streams, and
	// maintains memory-traffic counters (see TrafficStatser). It is an
	// explicit discriminator because the zero Write/Alloc values are the
	// valid write-back/write-allocate defaults. Engines that cannot
	// simulate write policies reject specs with WriteSim set.
	WriteSim bool
	// Write is the write policy (write-back or write-through); only
	// read when WriteSim is set.
	Write refsim.WritePolicy
	// Alloc is the allocation policy (write-allocate or
	// no-write-allocate); only read when WriteSim is set.
	Alloc refsim.AllocPolicy
	// StoreBytes is the store width for write-through and
	// no-write-allocate traffic accounting; 0 defaults to 4. Only read
	// when WriteSim is set.
	StoreBytes int
}

// CacheKey is the canonical serialization of the spec axes that
// determine a pass's results — the result-cache key component for this
// spec. Scheduling knobs are deliberately excluded: Workers only moves
// work across goroutines, and sharded replays are bit-identical to
// monolithic ones by the Engine contract, so neither may change a
// cached result. The write axes are folded in only under WriteSim
// (with the zero StoreBytes resolved to its documented default of 4),
// mirroring how engines read the spec — a kind-free spec and its
// WriteSim twin never share a key because the serializations differ.
func (s Spec) CacheKey() string {
	key := fmt.Sprintf("sets=%d..%d,assoc=%d,block=%d,policy=%v",
		s.MinLogSets, s.MaxLogSets, s.Assoc, s.BlockSize, s.Policy)
	if s.WriteSim {
		sb := s.StoreBytes
		if sb == 0 {
			sb = 4
		}
		key += fmt.Sprintf(",write=%v,alloc=%v,store-bytes=%d", s.Write, s.Alloc, sb)
	}
	return key
}

// Result is one configuration's outcome, the statistics contract every
// engine shares. It is structurally identical to core.Result and
// lrutree.Result, which convert directly.
type Result struct {
	Config cache.Config
	cache.Stats
}

// Engine replays immutable trace streams through one simulation pass.
type Engine interface {
	// SimulateStream replays a run-compressed block stream
	// monolithically. The stream must be materialized at the pass's
	// block size. Repeated calls accumulate (chunked replay).
	SimulateStream(bs *trace.BlockStream) error
	// SimulateSharded replays a shard partition with the pass's
	// internal parallelism fanned out across the substreams, falling
	// back to an exact monolithic replay of ss.Source when the pass
	// cannot decompose. Results are bit-identical to SimulateStream
	// over ss.Source either way. A single engine instance replays
	// through one entry point at a time: call Reset before switching
	// between SimulateStream and SimulateSharded, or between shard
	// levels.
	//
	// Cancelling ctx stops the replay's worker pool at substream
	// granularity and returns ctx's error with the pool drained; the
	// pass state is then inconsistent — Reset before reusing the
	// engine. (SimulateStream is a monolithic tight loop and takes no
	// context; cancellation granularity in this repository is the
	// chunk, the cell and the shard, never the individual access.)
	SimulateSharded(ctx context.Context, ss *trace.ShardStream) error
	// Reset rewinds to the freshly constructed state, reusing arenas.
	Reset()
	// Results returns the accumulated per-configuration statistics.
	Results() []Result
	// Accesses returns the number of requests simulated so far.
	Accesses() uint64
}

// RefStatser is the optional interface of engines that maintain the
// full Dinero-style statistics set (the reference engine); callers
// needing tag-comparison or eviction counts type-assert for it.
type RefStatser interface {
	RefStats() refsim.Stats
}

// TrafficStatser is the optional interface of engines that account
// memory traffic (the reference engine in write-policy mode); callers
// pricing bus energy or write-through bandwidth type-assert for it.
type TrafficStatser interface {
	RefTraffic() refsim.Traffic
}

// Paralleler is the optional interface of engines whose sharded replay
// may fall back to an exact monolithic pass: Parallel reports whether
// the most recent replay really decomposed across substreams.
type Paralleler interface {
	Parallel() bool
}

// Parallel reports whether e's most recent replay decomposed across
// substreams; engines without the capability report false.
func Parallel(e Engine) bool {
	p, ok := e.(Paralleler)
	return ok && p.Parallel()
}

// Rebinder is the optional interface of engines that can replay
// another spec on the arenas they already hold. Arenas are capacity,
// not shape: Rebind re-targets a finished engine to spec and resets it,
// keeping its arenas, whenever spec fits them — the DEW engine takes
// any block size and any narrower associativity over its set-count
// range and policy, the reference engine any configuration whose ways
// and sets fit, the LRU tree engine another block size — and reports
// false, leaving the engine untouched, otherwise.
type Rebinder interface {
	Rebind(spec Spec) bool
}

// Preparer is the optional interface of engines that build their
// stream-replay arenas lazily, on their first replay: Prepare builds
// them ahead of it, for the widest pass the engine was built for, and
// writes them once so their pages are mapped.
type Preparer interface {
	Prepare() error
}

// Prepare builds e's stream-replay arenas ahead of its first replay
// when e is a Preparer, so the first timed pass (TimedRun) measures
// simulation, not allocation and page faults; for other engines it
// does nothing.
func Prepare(e Engine) error {
	if p, ok := e.(Preparer); ok {
		return p.Prepare()
	}
	return nil
}

// Reuse returns e rebound to spec when e is a Rebinder that accepts
// spec, and a fresh New(name, spec) otherwise (e == nil included). The
// caller must only offer an engine whose last replay succeeded: a
// cancelled or failed replay leaves the pass state undefined.
func Reuse(e Engine, name string, spec Spec) (Engine, error) {
	if r, ok := e.(Rebinder); ok && r.Rebind(spec) {
		return e, nil
	}
	return New(name, spec)
}

// Builder constructs an engine for a spec.
type Builder func(Spec) (Engine, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]registration{}
)

type registration struct {
	build Builder
	doc   string
}

// Register adds an engine under a name; doc is a one-line description
// for tool help text. Registering a duplicate name panics — engine
// names are a flat global namespace the CLI exposes.
func Register(name, doc string, build Builder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of %q", name))
	}
	registry[name] = registration{build: build, doc: doc}
}

// New builds the named engine for the spec.
func New(name string, spec Spec) (Engine, error) {
	registryMu.RLock()
	reg, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (have %v)", name, Names())
	}
	return reg.build(spec)
}

// Names lists the registered engines, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Doc returns the registered one-line description, or "".
func Doc(name string) string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return registry[name].doc
}

// Replay is the stream-vs-sharded dispatch seam: it replays the shard
// partition when one is supplied and the parent stream otherwise.
// Every engine-driven tool routes its replays through here — this is
// the one place the choice is made. A monolithic replay checks ctx
// once up front (the stream loop itself is not interruptible); a
// sharded replay honours ctx at substream granularity.
func Replay(ctx context.Context, e Engine, bs *trace.BlockStream, ss *trace.ShardStream) error {
	if ss != nil {
		return e.SimulateSharded(ctx, ss)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return e.SimulateStream(bs)
}

// Run builds the named engine, replays the stream (or its shard
// partition) through it once, and returns the engine for inspection.
func Run(ctx context.Context, name string, spec Spec, bs *trace.BlockStream, ss *trace.ShardStream) (Engine, error) {
	e, _, err := TimedRun(ctx, nil, name, spec, bs, ss)
	return e, err
}

// TimedRun replays the stream (or its shard partition) once through e
// rebound to spec — or through a fresh New(name, spec) when e is nil or
// cannot take spec (see Reuse) — and returns the engine that ran with
// the replay's wall time. Rebinding, resetting and construction are
// outside the timed region and the replay inside it. An engine builds
// its arenas lazily, on its first replay, and that replay pays for
// them; a caller that wants every timed pass to measure simulation
// alone hands TimedRun an engine built ahead with Prepare, as the
// sweep's engine kits do. Arenas are capacity: a caller that hands
// every pass the engine the previous one returned allocates only when
// a pass outgrows them. On a failed or
// cancelled replay the engine is not returned, since its pass state is
// undefined; the caller must drop e too.
func TimedRun(ctx context.Context, e Engine, name string, spec Spec, bs *trace.BlockStream, ss *trace.ShardStream) (Engine, time.Duration, error) {
	e, err := Reuse(e, name, spec)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := Replay(ctx, e, bs, ss); err != nil {
		return nil, 0, err
	}
	return e, time.Since(start), nil
}

// Core returns the monolithic DEW simulator behind e when e is a dew
// engine whose most recent replay was a stream replay, and nil
// otherwise. It serves callers that need what the engine contract
// leaves out — the per-access instrumented walk and its property
// counters — on the arenas the engine already holds; after using it
// they must treat e's Results as the simulator's.
func Core(e Engine) *core.Simulator {
	if d, ok := e.(*dewEngine); ok && d.mono != nil && d.last == d.mono {
		return d.mono
	}
	return nil
}
