package trace

import (
	"fmt"
	"math"
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
// Run formation is the per-access state machine of BlockStream.append:
// grow the tail run while the ID repeats and the uint32 counter is
// below MaxUint32, else start a new run. The 2B materialization of a
// trace runs that machine over addr >> (log2 B + 1) — exactly the
// per-access expansion of the B stream with every ID halved. Folding
// replays that expansion run-at-a-time with appendRun's semantics
// (saturate the tail at MaxUint32, then start runs greedily), which
// reproduces the machine step for step, so the folded stream is
// bit-identical to MaterializeBlockStream at the coarser size —
// including where uint32 run-overflow splits land. Fold composes:
// folding k times is bit-identical to materializing at B·2^k, and
// sharding a folded stream (ShardBlockStream) is bit-identical to
// decoding and sharding at the coarser size, so the decode-once → fold →
// shard ladder carries every downstream exactness argument unchanged.

// foldInto runs the fold over bs, appending to dst's (reset) columns.
// Each source run appends at most one entry, so the output never holds
// more runs than the input. The kind channel, when present, folds
// along: merged runs concatenate their kind records, and a uint32
// overflow splits the source record at the same cut the weight split
// lands on (per-access semantics under the canonical expansion — see
// kind.go).
func foldInto(dst, bs *BlockStream) {
	kinds := bs.Kinds != nil
	dst.BlockSize = bs.BlockSize << 1
	dst.IDs = dst.IDs[:0]
	dst.Runs = dst.Runs[:0]
	if kinds {
		if dst.Kinds == nil {
			dst.Kinds = []KindRun{}
		}
		dst.Kinds = dst.Kinds[:0]
	} else {
		dst.Kinds = nil
	}
	dst.Accesses = bs.Accesses
	for i, id := range bs.IDs {
		fid := id >> 1
		w := bs.Runs[i]
		var kr KindRun
		if kinds {
			kr = bs.Kinds[i]
		}
		if n := len(dst.IDs) - 1; n >= 0 && dst.IDs[n] == fid {
			if sum := uint64(dst.Runs[n]) + uint64(w); sum <= math.MaxUint32 {
				dst.Runs[n] = uint32(sum)
				if kinds {
					dst.Kinds[n] = mergeKind(dst.Kinds[n], kr)
				}
				continue
			} else {
				// Per-access semantics at the counter boundary: the
				// tail saturates, the remainder starts the next run.
				if kinds {
					// The cut lands inside this source run: the tail
					// absorbs its first `take` accesses, the remainder
					// record starts the next run.
					take := math.MaxUint32 - dst.Runs[n]
					var front KindRun
					front, kr = splitKindRun(kr, take)
					dst.Kinds[n] = mergeKind(dst.Kinds[n], front)
				}
				w = uint32(sum - math.MaxUint32)
				dst.Runs[n] = math.MaxUint32
			}
		}
		dst.IDs = append(dst.IDs, fid)
		dst.Runs = append(dst.Runs, w)
		if kinds {
			dst.Kinds = append(dst.Kinds, kr)
		}
	}
}

// foldRunCount replays the fold's merge decisions without writing: the
// exact entry count of the folded stream, so FoldBlockStream's columns
// never reallocate.
func foldRunCount(bs *BlockStream) int {
	n := 0
	var lastID uint64
	var lastRun uint32
	for i, id := range bs.IDs {
		fid := id >> 1
		w := bs.Runs[i]
		if n > 0 && lastID == fid {
			if sum := uint64(lastRun) + uint64(w); sum <= math.MaxUint32 {
				lastRun = uint32(sum)
				continue
			} else {
				lastRun = uint32(sum - math.MaxUint32)
			}
		} else {
			lastID, lastRun = fid, w
		}
		n++
	}
	return n
}

// FoldBlockStream derives the stream at twice the block size: every run
// ID halved, now-adjacent equal-ID runs merged, uint32 run-overflow
// splits placed exactly where per-access materialization would place
// them. The result is bit-identical to MaterializeBlockStream of the
// same trace at 2×bs.BlockSize, costs O(bs.Len()) instead of a full
// trace re-decode, and leaves bs untouched (streams stay immutable and
// shareable). An exact counting pass sizes the columns, so the fold
// allocates exactly one ID and one run column.
func FoldBlockStream(bs *BlockStream) *BlockStream {
	n := foldRunCount(bs)
	dst := &BlockStream{
		IDs:  make([]uint64, 0, n),
		Runs: make([]uint32, 0, n),
	}
	if bs.Kinds != nil {
		dst.Kinds = make([]KindRun, 0, n)
	}
	foldInto(dst, bs)
	return dst
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
	foldInto(dst, bs)
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
// with FoldBlockStream as its passes need them, so neither holds the
// whole ladder.) Every requested size must be a power of two at least
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
