package trace

import (
	"fmt"
	"sort"
)

// This file folds the block-size axis of the design space: a stream
// materialized at block size B already determines the stream at every
// coarser power-of-two size, because doubling the block size just drops
// one low ID bit. FoldBlockStream derives the 2B stream from the B
// stream in O(runs) — halve every run's ID and merge the now-adjacent
// equal-ID runs — instead of the O(accesses) full re-decode the
// design-space frontends used to pay once per block size.
//
// # Exactness
//
// Run formation is the state machine of BlockStream.step: grow the open
// run while the ID repeats and the uint32 counter is below MaxUint32,
// else start a new run. The 2B materialization of a trace runs that
// machine over addr >> (log2 B + 1) — exactly the per-access expansion
// of the B stream with every ID halved. Folding (foldStage.feed,
// spanfold.go) replays that expansion run-at-a-time with a weighted
// step's semantics (saturate the tail at MaxUint32, then start runs
// greedily), which reproduces the machine step for step, so
// the folded stream is bit-identical to MaterializeBlockStream at the
// coarser size — including where uint32 run-overflow splits land. The
// machine's only mutable state is the tail run, which a foldStage keeps
// as the last entry of its columns: FoldBlockStream feeds one stage the
// whole stream, and LadderFolder feeds a chain of stages span by span,
// visiting each stage's runs but its tail. Fold composes: folding k
// times is bit-identical to materializing at B·2^k, and sharding a
// folded stream (ShardBlockStream) is bit-identical to decoding and
// sharding at the coarser size, so the decode-once → fold → shard
// ladder carries every downstream exactness argument unchanged.

// FoldBlockStream derives the stream at twice the block size: every run
// ID halved, now-adjacent equal-ID runs merged, uint32 run-overflow
// splits placed exactly where per-access materialization would place
// them. The result is bit-identical to MaterializeBlockStream of the
// same trace at 2×bs.BlockSize, costs O(bs.Len()) instead of a full
// trace re-decode, and leaves bs untouched (streams stay immutable and
// shareable). A counting pass (foldLen) sizes the columns, so the fold
// allocates exactly one ID and one run column of the folded length.
func FoldBlockStream(bs *BlockStream) *BlockStream {
	n := foldLen(bs)
	dst := &BlockStream{
		IDs:  make([]uint64, 0, n),
		Runs: make([]uint32, 0, n),
	}
	if bs.Kinds != nil {
		dst.Kinds = make([]KindRun, 0, n)
	}
	return FoldBlockStreamInto(dst, bs)
}

// foldLen returns the run count of bs's fold. It runs the fold machine
// over bs a slice at a time through a small scratch stage, counting the
// runs each slice makes final, then the tail: the ID and run columns
// alone decide the count.
func foldLen(bs *BlockStream) int {
	const slice = 256
	st := foldStage{out: BlockStream{IDs: make([]uint64, 0, slice+1), Runs: make([]uint32, 0, slice+1)}}
	n := 0
	for lo := 0; lo < bs.Len(); lo += slice {
		hi := min(lo+slice, bs.Len())
		st.settle(false)
		st.feed(&BlockStream{IDs: bs.IDs[lo:hi], Runs: bs.Runs[lo:hi]}, false)
		n += st.final(false).Len()
	}
	st.settle(false)
	return n + st.out.Len()
}

// FoldBlockStreamInto is FoldBlockStream folding into a reusable
// destination: dst's columns are truncated and refilled in place,
// growing only when their capacity is short (a fold never produces more
// runs than its source, so any dst that has held a fold of an
// equal-or-finer stream is already large enough). It returns dst.
// Steady-state folding through a reused destination allocates nothing —
// the fold-ladder mirror of Simulator.Reset.
func FoldBlockStreamInto(dst, bs *BlockStream) *BlockStream {
	if dst == bs {
		panic("trace: FoldBlockStreamInto folding a stream into itself")
	}
	kinds := bs.Kinds != nil
	st := foldStage{out: BlockStream{BlockSize: bs.BlockSize << 1, IDs: dst.IDs[:0], Runs: dst.Runs[:0]}}
	if kinds {
		st.out.Kinds = dst.Kinds[:0]
		if st.out.Kinds == nil {
			st.out.Kinds = []KindRun{}
		}
	}
	st.feed(bs, kinds)
	*dst = st.out
	return dst
}

// FoldTo folds bs up to the given coarser block size (a power of two at
// least bs.BlockSize), returning bs itself when the sizes already
// match. Derivation is one fold per doubling; callers walking several
// rungs should prefer FoldLadder, which shares the intermediate folds.
func FoldTo(bs *BlockStream, blockSize int) (*BlockStream, error) {
	if blockSize < 1 || blockSize&(blockSize-1) != 0 {
		return nil, fmt.Errorf("trace: block size must be a positive power of two, got %d", blockSize)
	}
	if bs.BlockSize < 1 || bs.BlockSize&(bs.BlockSize-1) != 0 {
		// An unmaterialized or corrupt source would otherwise double
		// forever below (0 << 1 == 0) or land off the power-of-two grid.
		return nil, fmt.Errorf("trace: cannot fold a stream with block size %d (not a positive power of two)", bs.BlockSize)
	}
	if blockSize < bs.BlockSize {
		return nil, fmt.Errorf("trace: cannot fold block size %d down to %d (folding only coarsens)", bs.BlockSize, blockSize)
	}
	cur := bs
	for cur.BlockSize < blockSize {
		cur = FoldBlockStream(cur)
	}
	return cur, nil
}

// FoldLadder derives every requested block size from one stream at the
// finest size: the block sizes are sorted and deduplicated, and each
// rung is folded from the nearest finer one, so the whole ladder costs
// O(total runs) after the single decode that produced bs — this is how
// the sweep (sweep.RunCells) shares one ladder per trace instead of
// re-decoding the trace once per block size. (dewsim folds its ladder
// span by span through LadderFolder, and explore.Run folds rung by rung
// as its passes need them, refilling a released rung with
// FoldBlockStreamInto when it has one, so neither holds the whole
// ladder.) Every requested size must be a power of two at least
// bs.BlockSize; the map holds bs itself under its own size when
// requested. Intermediate rungs that were not requested are folded
// through but not retained.
func FoldLadder(bs *BlockStream, blockSizes []int) (map[int]*BlockStream, error) {
	sorted := append([]int(nil), blockSizes...)
	sort.Ints(sorted)
	out := make(map[int]*BlockStream, len(sorted))
	cur := bs
	for _, b := range sorted {
		if _, ok := out[b]; ok {
			continue
		}
		next, err := FoldTo(cur, b)
		if err != nil {
			return nil, err
		}
		cur = next
		out[b] = cur
	}
	return out, nil
}
