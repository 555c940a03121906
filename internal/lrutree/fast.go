package lrutree

import (
	"fmt"

	"dew/internal/trace"
)

// SimulateStream replays a materialized block stream through the pass.
// The stream must have been materialized at the pass's block size. Like
// the DEW core's SimulateStream, the stream is only read, so one stream
// may be shared by concurrent passes on distinct simulators.
func (s *Simulator) SimulateStream(bs *trace.BlockStream) error {
	if bs.BlockSize != s.opt.BlockSize {
		return fmt.Errorf("lrutree: stream materialized at block size %d, pass simulates %d",
			bs.BlockSize, s.opt.BlockSize)
	}
	s.AccessRuns(bs.IDs, bs.Runs)
	return nil
}

// AccessRuns simulates a run-length-compressed sequence of block IDs:
// ids[i] accessed runs[i] consecutive times (zero-weight entries are
// skipped). Run folding is exact because every access after the first
// of a run is precisely a same-block repeat, which the CRCB pruning
// rule proves hits every configuration and reorders nothing, so the
// fast path walks the tree once per run.
func (s *Simulator) AccessRuns(ids []uint64, runs []uint32) {
	if len(ids) != len(runs) {
		panic(fmt.Sprintf("lrutree: AccessRuns columns disagree: %d ids, %d runs", len(ids), len(runs)))
	}
	var total uint64
	prev, ok := s.prevBlk, s.havePrev
	for i, id := range ids {
		w := runs[i]
		if w == 0 {
			continue
		}
		total += uint64(w)
		if ok && id == prev {
			// Chunk boundary mid-run, or a repeat across entry points.
			continue
		}
		prev, ok = id, true
		s.accessFast(id)
	}
	s.prevBlk, s.havePrev = prev, ok
	s.accesses += total
	s.foldExitHist()
}

// accessFast is Access's walk on the arenas: the same walk down the
// simulation tree — MRU cut-off, recency-list scan, rotate-or-insert —
// mutating exactly the same state in exactly the same order, so results
// are bit-identical to the per-access path. Same-block pruning happens
// in the callers' memo check before this runs.
//
// It walks the level-major arenas directly, with the per-level node mask
// and arena offsets computed incrementally in registers (mask doubles,
// offsets advance by the previous level's size), so the only memory a
// level touches before its MRU verdict is the node's own packed record —
// the layout ported from the DEW core's fast path.
func (s *Simulator) accessFast(blk uint64) {
	assoc := s.assoc
	nodes := s.nodes
	tags := s.tags
	missA := s.missA
	exitHist := s.exitHist
	nLevels := len(s.levels)

	mask := uint64(1)<<uint(s.opt.MinLogSets) - 1 // level-0 node mask, doubling per level
	nodeOff := 0                                  // arena offset of the level's node records
	wayOff := 0                                   // arena offset of the level's way entries

	for li := 0; li < nLevels; li++ {
		node := int(blk & mask)
		nd := &nodes[nodeOff+node]
		levelNodes := int(mask) + 1
		nodeOff += levelNodes
		base := wayOff + node*assoc
		wayOff += levelNodes * assoc
		mask = mask<<1 | 1

		fill := int(nd.fill)
		// Direct-mapped check, doubling as the MRU cut-off: decided
		// from the packed record alone (tag first, validity second —
		// both pure loads).
		if nd.mru == blk && fill > 0 {
			// MRU here, hence MRU in every deeper set it maps to: hits
			// everywhere below, no state changes, the walk stops. The
			// exit depth stands in for the per-level missDM increments
			// (see Simulator.exitHist).
			exitHist[li]++
			return
		}

		// Scan the recency list (the MRU slot is already decided).
		hitAt := -1
		for w := 1; w < fill; w++ {
			if tags[base+w] == blk {
				hitAt = w
				break
			}
		}
		if hitAt >= 0 {
			// Hit: rotate the tag to the MRU position.
			copy(tags[base+1:base+hitAt+1], tags[base:base+hitAt])
			tags[base] = blk
			nd.mru = blk
			continue
		}

		// Miss: insert at MRU, evicting the LRU tail if full.
		missA[li]++
		if fill < assoc {
			copy(tags[base+1:base+fill+1], tags[base:base+fill])
			nd.fill++
		} else {
			copy(tags[base+1:base+assoc], tags[base:base+assoc-1])
		}
		tags[base] = blk
		nd.mru = blk
	}
	exitHist[nLevels]++
}

// foldExitHist folds the pending exit-depth histogram into missDM: an
// exit at depth d means the walk MRU-missed (and so direct-mapped-
// missed) levels 0..d-1. Memoized same-block skips and folded run
// weights are level-0 exits and contribute to no level.
func (s *Simulator) foldExitHist() {
	var suffix uint64
	for li := len(s.exitHist) - 1; li >= 1; li-- {
		suffix += s.exitHist[li]
		s.exitHist[li] = 0
		s.missDM[li-1] += suffix
	}
}
