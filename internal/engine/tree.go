package engine

import (
	"context"
	"fmt"

	"dew/internal/cache"
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

// results converts a tree simulator's results to the engine's.
func results[R treeResult](in []R) []Result {
	out := make([]Result, len(in))
	for i, r := range in {
		out[i] = Result(r)
	}
	return out
}

// sim is what the engine adapter needs of a simulator: stream replay,
// Reset, and one record per configuration it simulates. Each engine
// wraps its simulator type to serve its record type R.
type sim[R any] interface {
	SimulateStream(bs *trace.BlockStream) error
	Reset()
	Results() []R
}

// record is a per-configuration record the sharded pass stitches: the
// tree engines' Result, the reference engine's full Dinero-style
// record (refRecord).
type record[R any] interface {
	// plus returns the record with o's counts added, o being the same
	// configuration's record over a disjoint group of its sets.
	plus(o R) R
	// unshard maps a tree-local record of a pass at shard level log
	// back to the parent configuration.
	unshard(log int) R
	// result is the record's share of the engine contract.
	result() Result
}

// The tree engines' stitch: the trees partition the accesses, so
// access and miss counts add.
func (r Result) plus(o Result) Result {
	r.Accesses += o.Accesses
	r.Misses += o.Misses
	return r
}

func (r Result) unshard(log int) Result {
	r.Config = unshard(r.Config, log)
	return r
}

func (r Result) result() Result { return r }

// unshard maps a tree-local configuration at shard level log (2^log
// times fewer sets at a 2^log times larger block size) back to its
// parent.
func unshard(cfg cache.Config, log int) cache.Config {
	cfg.Sets <<= log
	cfg.BlockSize >>= log
	return cfg
}

// adapter is what every built-in engine shares: a monolithic simulator
// for stream replay and a set-sharded pass for sharded replay, each
// built on first use so an engine only allocates the arenas it replays
// on. The engines keep only what differs — which respecs Rebind
// accepts, how the monolithic simulator is built, and (the reference
// engine) when a sharded replay falls back to it.
type adapter[R record[R]] struct {
	spec Spec
	// build makes one piece of the sharded pass for a spec.
	build func(Spec) (sim[R], error)
	// buildMono makes the monolithic simulator for the engine's spec.
	buildMono func(Spec) (sim[R], error)
	mono      sim[R]
	sharded   *shardedPass[R]
	// last is the backend that replayed most recently (mono or
	// sharded), nil before any replay; Results reads it.
	last any
}

// monolithic builds the monolithic simulator on first use.
func (e *adapter[R]) monolithic() error {
	if e.mono != nil {
		return nil
	}
	s, err := e.buildMono(e.spec)
	if err != nil {
		return err
	}
	e.mono = s
	return nil
}

// rebind moves the engine to a spec its Rebind accepted. The sharded
// pass, whose pieces are shaped by the spec, is dropped and rebuilt on
// demand.
func (e *adapter[R]) rebind(spec Spec) {
	e.spec, e.sharded, e.last = spec, nil, nil
}

func (e *adapter[R]) SimulateStream(bs *trace.BlockStream) error {
	if err := e.monolithic(); err != nil {
		return err
	}
	e.last = e.mono
	return e.mono.SimulateStream(bs)
}

func (e *adapter[R]) SimulateSharded(ctx context.Context, ss *trace.ShardStream) error {
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

func (e *adapter[R]) Reset() {
	if e.mono != nil {
		e.mono.Reset()
	}
	if e.sharded != nil {
		e.sharded.Reset()
	}
	e.last = nil
}

// records returns the records of the backend that replayed last.
func (e *adapter[R]) records() []R {
	switch {
	case e.last == nil:
		return nil
	case e.last == e.mono:
		return e.mono.Results()
	default:
		return e.sharded.Results()
	}
}

func (e *adapter[R]) Results() []Result {
	recs := e.records()
	if recs == nil {
		return nil
	}
	out := make([]Result, len(recs))
	for i, r := range recs {
		out[i] = r.result()
	}
	return out
}

// shardedPass is one pass decomposed for intra-pass parallelism at a
// shard level S: a shallow pass over the levels [MinLogSets, S)
// replaying the full block stream, plus 2^S tree passes, tree t
// replaying the substream of a trace.ShardStream that holds the blocks
// with id mod 2^S == t. Its stitched Results are bit-identical to the
// monolithic pass's. The reference engine's one-configuration passes
// (MinLogSets = MaxLogSets ≥ S) have no shallow pass: their 2^S trees
// are the sub-caches of one configuration, each holding the sets whose
// index is congruent to t mod 2^S.
//
// Exactness needs no argument beyond set indexing, and none that
// depends on the replacement policy as long as its state is per set
// (FIFO, LRU; the reference engine replays Random monolithically). Each
// level of a tree pass is the exact simulation of one configuration;
// the tree is an acceleration structure, not a coupling between
// levels, so any split of the level range across simulators is exact.
// For the levels at and below S, a block address b evaluates set (or
// node) b mod 2^L, and (b mod 2^L) mod 2^S == b mod 2^S for every
// L ≥ S: the 2^S trees never share a set, tree t is touched exactly by
// the accesses with b mod 2^S == t, and a set's state evolves only
// with its own access subsequence, whose order the substream
// preserves. The pruning properties only save work inside one tree
// walk, so they never couple trees either. Every count a record holds
// is a sum of per-set contributions, so the trees' records add.
//
// Each tree runs as a compact simulator over tree-local IDs (the shard
// level's bits shifted away; see trace.ShardStream): levels
// [max(MinLogSets-S, 0), MaxLogSets-S] at block size BlockSize << S,
// so its arenas are 2^S times smaller than the monolithic deep levels.
// A tree-local ID sid indexes set sid mod 2^(L-S) with tag
// sid >> (L-S), precisely the set and tag the monolithic simulator
// derives from the parent ID. The pass is counter-free: splitting a
// walk changes where its cut-offs land, so work counters are only
// defined for a monolithic pass.
type shardedPass[R record[R]] struct {
	log, blockSize, workers int
	// shallow simulates levels [MinLogSets, S) over the full stream;
	// nil when S ≤ MinLogSets (every level belongs to a tree).
	shallow sim[R]
	// trees[t] simulates levels [max(MinLogSets, S), MaxLogSets] for
	// the blocks with id mod 2^S == t.
	trees []sim[R]
}

// newShardedPass builds the sharded pass for spec at shard level log
// (2^log trees), building each piece with build.
func newShardedPass[R record[R]](spec Spec, log int, build func(Spec) (sim[R], error)) (*shardedPass[R], error) {
	if log < 0 || log > spec.MaxLogSets {
		return nil, fmt.Errorf("engine: shard level %d outside [0, MaxLogSets=%d]", log, spec.MaxLogSets)
	}
	p := &shardedPass[R]{log: log, blockSize: spec.BlockSize, workers: spec.Workers, trees: make([]sim[R], 1<<log)}
	if log > spec.MinLogSets {
		shallow := spec
		shallow.MaxLogSets = log - 1
		s, err := build(shallow)
		if err != nil {
			return nil, err
		}
		p.shallow = s
	}
	tree := spec
	tree.MinLogSets = max(spec.MinLogSets-log, 0)
	tree.MaxLogSets = spec.MaxLogSets - log
	tree.BlockSize = spec.BlockSize << log
	for t := range p.trees {
		s, err := build(tree)
		if err != nil {
			return nil, err
		}
		p.trees[t] = s
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

// Results stitches the pass's records in the monolithic layout: the
// shallow rows as they are, then the trees' rows summed row by row
// with each row's tree-local set count and block size mapped back.
func (p *shardedPass[R]) Results() []R {
	var out []R
	if p.shallow != nil {
		out = p.shallow.Results()
	}
	deep := p.trees[0].Results()
	for _, tree := range p.trees[1:] {
		for i, r := range tree.Results() {
			deep[i] = deep[i].plus(r)
		}
	}
	for i := range deep {
		deep[i] = deep[i].unshard(p.log)
	}
	return append(out, deep...)
}
