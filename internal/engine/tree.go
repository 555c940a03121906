package engine

import (
	"context"
	"fmt"

	"dew/internal/core"
	"dew/internal/lrutree"
	"dew/internal/pool"
	"dew/internal/trace"
)

// treeResult is the per-configuration result type of the two
// simulation-tree simulators; both convert directly to Result.
type treeResult interface {
	core.Result | lrutree.Result
}

// treeSim is what the tree engines need of a simulator:
// *core.Simulator and *lrutree.Simulator both satisfy it.
type treeSim[R treeResult] interface {
	SimulateStream(bs *trace.BlockStream) error
	Reset()
	Results() []R
}

// results converts a tree simulator's results to the engine's.
func results[R treeResult](in []R) []Result {
	out := make([]Result, len(in))
	for i, r := range in {
		out[i] = Result(r)
	}
	return out
}

// treeEngine is the adapter both simulation-tree engines (dew and
// lrutree) share: a monolithic simulator for stream replay and a
// sharded pass for sharded replay, each built on first use so an
// engine only allocates the arenas it replays on. The engines keep
// only what differs — which respecs Rebind accepts, and how the
// monolithic simulator is built.
type treeEngine[R treeResult] struct {
	spec Spec
	// build makes a simulator for a spec: the engine's, or one piece of
	// it in the sharded pass.
	build func(Spec) (treeSim[R], error)
	// buildMono makes the monolithic simulator for the engine's spec.
	buildMono func(Spec) (treeSim[R], error)
	mono      treeSim[R]
	sharded   *shardedPass[R]
	// last is the backend that replayed most recently (mono or
	// sharded), nil before any replay; Results reads it.
	last any
}

// monolithic builds the monolithic simulator on first use.
func (e *treeEngine[R]) monolithic() error {
	if e.mono != nil {
		return nil
	}
	sim, err := e.buildMono(e.spec)
	if err != nil {
		return err
	}
	e.mono = sim
	return nil
}

// rebind moves the engine to a spec its Rebind accepted. The sharded
// pass, whose tree shapes depend on the block size, is dropped and
// rebuilt on demand.
func (e *treeEngine[R]) rebind(spec Spec) {
	e.spec, e.sharded, e.last = spec, nil, nil
}

func (e *treeEngine[R]) SimulateStream(bs *trace.BlockStream) error {
	if err := e.monolithic(); err != nil {
		return err
	}
	e.last = e.mono
	return e.mono.SimulateStream(bs)
}

func (e *treeEngine[R]) SimulateSharded(ctx context.Context, ss *trace.ShardStream) error {
	if e.sharded == nil || e.sharded.log != ss.Log {
		sh, err := newShardedPass(e.spec, ss.Log, e.build)
		if err != nil {
			return err
		}
		e.sharded = sh
	}
	e.last = e.sharded
	return e.sharded.SimulateStream(ctx, ss)
}

func (e *treeEngine[R]) Reset() {
	if e.mono != nil {
		e.mono.Reset()
	}
	if e.sharded != nil {
		e.sharded.Reset()
	}
	e.last = nil
}

func (e *treeEngine[R]) Results() []Result {
	switch {
	case e.last == nil:
		return nil
	case e.last == e.mono:
		return results(e.mono.Results())
	default:
		return e.sharded.Results()
	}
}

// shardedPass is one tree pass decomposed for intra-pass parallelism
// at a shard level S: a shallow pass over the levels [MinLogSets, S)
// replaying the full block stream, plus 2^S tree passes, tree t
// replaying the substream of a trace.ShardStream that holds the blocks
// with id mod 2^S == t. Its stitched Results are bit-identical to the
// monolithic pass's.
//
// Exactness needs no argument beyond the simulation tree itself, and
// none that depends on the replacement policy. Each level of a tree
// pass is the exact simulation of one configuration; the tree is an
// acceleration structure, not a coupling between levels, so any split
// of the level range across simulators is exact. For the levels at and
// below S, a block address b evaluates node b mod 2^L, and
// (b mod 2^L) mod 2^S == b mod 2^S for every L ≥ S: the forest's 2^S
// trees never share a node, tree t is touched exactly by the accesses
// with b mod 2^S == t, and a node's state evolves only with its own
// access subsequence, whose order the substream preserves. The pruning
// properties only save work inside one tree walk, so they never couple
// trees either.
//
// Each tree runs as a compact simulator over tree-local IDs (the shard
// level's bits shifted away; see trace.ShardStream): levels
// [max(MinLogSets-S, 0), MaxLogSets-S] at block size BlockSize << S,
// so its arenas are 2^S times smaller than the monolithic deep levels.
// The pass is counter-free: splitting a walk changes where its
// cut-offs land, so work counters are only defined for a monolithic
// pass.
type shardedPass[R treeResult] struct {
	log, blockSize, workers int
	// shallow simulates levels [MinLogSets, S) over the full stream;
	// nil when S ≤ MinLogSets (every level belongs to a tree).
	shallow treeSim[R]
	// trees[t] simulates levels [max(MinLogSets, S), MaxLogSets] for
	// the blocks with id mod 2^S == t.
	trees []treeSim[R]
}

// newShardedPass builds the sharded pass for spec at shard level log
// (2^log trees), building each piece with build.
func newShardedPass[R treeResult](spec Spec, log int, build func(Spec) (treeSim[R], error)) (*shardedPass[R], error) {
	if log < 0 || log > spec.MaxLogSets {
		return nil, fmt.Errorf("engine: shard level %d outside [0, MaxLogSets=%d]", log, spec.MaxLogSets)
	}
	p := &shardedPass[R]{log: log, blockSize: spec.BlockSize, workers: spec.Workers, trees: make([]treeSim[R], 1<<log)}
	if log > spec.MinLogSets {
		shallow := spec
		shallow.MaxLogSets = log - 1
		sim, err := build(shallow)
		if err != nil {
			return nil, err
		}
		p.shallow = sim
	}
	tree := spec
	tree.MinLogSets = max(spec.MinLogSets-log, 0)
	tree.MaxLogSets = spec.MaxLogSets - log
	tree.BlockSize = spec.BlockSize << log
	for t := range p.trees {
		sim, err := build(tree)
		if err != nil {
			return nil, err
		}
		p.trees[t] = sim
	}
	return p, nil
}

// SimulateStream replays a shard partition: each tree its own
// substream and the shallow pass the parent stream, across the worker
// pool. The partition must be cut at the pass's shard level and block
// size; it is only read, so concurrent passes may share it. Repeated
// calls continue the pass, as the monolithic stream replay does.
// Cancelling ctx stops claiming replays (one task per tree) and leaves
// the pass needing a Reset; a replay panic surfaces as a
// *pool.PanicError.
func (p *shardedPass[R]) SimulateStream(ctx context.Context, ss *trace.ShardStream) error {
	if ss.Log != p.log || ss.BlockSize != p.blockSize || ss.NumShards() != len(p.trees) {
		return fmt.Errorf("engine: stream has %d shards at level %d and block size %d; pass expects %d at level %d and block size %d",
			ss.NumShards(), ss.Log, ss.BlockSize, len(p.trees), p.log, p.blockSize)
	}
	// Tasks 0..2^S-1 are the trees; the last task is the shallow pass.
	// Every task writes only its own simulator.
	n := len(p.trees)
	if p.shallow != nil {
		n++
	}
	return pool.Run(ctx, p.workers, n, func(t int) error {
		if t == len(p.trees) {
			return p.shallow.SimulateStream(ss.Source)
		}
		return p.trees[t].SimulateStream(&ss.Shards[t])
	})
}

// Reset returns the pass to its freshly built state, reusing the
// arenas.
func (p *shardedPass[R]) Reset() {
	if p.shallow != nil {
		p.shallow.Reset()
	}
	for _, tree := range p.trees {
		tree.Reset()
	}
}

// Results stitches the pass's results in the monolithic layout: the
// shallow rows as they are, then the trees' rows summed row by row —
// the trees partition the accesses, so misses and access counts add —
// with each row's tree-local set count and block size mapped back.
func (p *shardedPass[R]) Results() []Result {
	var out []Result
	if p.shallow != nil {
		out = results(p.shallow.Results())
	}
	deep := results(p.trees[0].Results())
	for _, tree := range p.trees[1:] {
		for i, r := range tree.Results() {
			row := Result(r)
			deep[i].Misses += row.Misses
			deep[i].Accesses += row.Accesses
		}
	}
	for i := range deep {
		deep[i].Config.Sets <<= p.log
		deep[i].Config.BlockSize >>= p.log
	}
	return append(out, deep...)
}
