package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"dew/internal/trace"
)

// SimulateStream replays a materialized block stream through the pass.
// The stream must have been materialized at the pass's block size — the
// simulator consumes block IDs directly, with no per-access address
// shift or struct load. With no property ablated this is the fastest
// entry point: one tree walk per run, with run weights folded
// arithmetically into Counters.Accesses.
//
// The stream is only read, never written, so one stream may be shared
// by any number of concurrent SimulateStream calls on distinct
// simulators (the design-space layers rely on this).
func (s *Simulator) SimulateStream(bs *trace.BlockStream) error {
	if bs.BlockSize != s.opt.BlockSize {
		return fmt.Errorf("core: stream materialized at block size %d, pass simulates %d",
			bs.BlockSize, s.opt.BlockSize)
	}
	s.AccessRuns(bs.IDs, bs.Runs)
	return nil
}

// AccessRuns simulates a run-length-compressed sequence of block IDs:
// ids[i] — a block address already shifted by the pass's block size —
// accessed runs[i] consecutive times. Entries with a zero run weight
// are skipped. Callers normally obtain the columns from a
// trace.BlockStream via SimulateStream; AccessRuns itself accepts any
// split of a stream, including chunks that start mid-run (the repeated
// head is recognized and folded like any other repeat).
//
// Exactness of run folding rests on Property 2: every access after the
// first of a run repeats the previous block, which is by construction a
// level-0 MRA hit — a hit at every simulated configuration that
// mutates no replacement state (FIFO never reorders on hits). The
// counter-free fast path therefore walks the tree once per run and adds
// the full run weight to Counters.Accesses. With a property ablated the
// fold is invalid (ablations change which counters move on a repeat),
// so each run is expanded through Access.
func (s *Simulator) AccessRuns(ids []uint64, runs []uint32) {
	if len(ids) != len(runs) {
		// Fail loudly on every path: the fast path's weight pre-pass
		// would otherwise silently disagree with its walk.
		panic(fmt.Sprintf("core: AccessRuns columns disagree: %d ids, %d runs", len(ids), len(runs)))
	}
	if s.opt.DisableMRA || s.opt.DisableWave || s.opt.DisableMRE {
		off := s.offBits
		for i, id := range ids {
			for k := uint32(0); k < runs[i]; k++ {
				s.Access(trace.Access{Addr: id << off})
			}
		}
		return
	}
	s.counters.Accesses += s.runsFastFIFO(ids, runs)
	s.foldExitHist()
}

// foldExitHist folds the pending exit-depth histogram into missDM: an
// exit at depth d means the walk MRA-missed (and so
// direct-mapped-missed) levels 0..d-1. Memoized skips and folded run
// weights are level-0 exits and contribute to no level, so they need no
// histogram entry at all. Called at the end of every counter-free
// stream chunk, so missDM is current whenever no fast-path entry point
// is running.
func (s *Simulator) foldExitHist() {
	var suffix uint64
	for li := len(s.exitHist) - 1; li >= 1; li-- {
		suffix += s.exitHist[li]
		s.exitHist[li] = 0
		s.missDM[li-1] += suffix
	}
}

// runsFastFIFO is the columnar FIFO walk: the counter-free fast path
// over the raw ids column, returning the total access weight consumed.
// The walk itself is runsFIFO, one kernel compiled once per
// associativity Options.Validate accepts; runsFastFIFO only picks the
// copy for the pass's width.
func (s *Simulator) runsFastFIFO(ids []uint64, runs []uint32) uint64 {
	switch s.assoc {
	case 1:
		return runsFIFO[[1]uint64](s, ids, runs)
	case 2:
		return runsFIFO[[2]uint64](s, ids, runs)
	case 4:
		return runsFIFO[[4]uint64](s, ids, runs)
	case 8:
		return runsFIFO[[8]uint64](s, ids, runs)
	case 16:
		return runsFIFO[[16]uint64](s, ids, runs)
	case 32:
		return runsFIFO[[32]uint64](s, ids, runs)
	case 64:
		return runsFIFO[[64]uint64](s, ids, runs)
	}
	panic(fmt.Sprintf("core: no FIFO walk for %d ways", s.assoc))
}

// wayRow is one node's row of tags at each associativity the simulator
// accepts. runsFIFO never holds a value of it: the type only carries
// the width, so that each array length gets its own compiled copy of
// the kernel in which the width is a constant.
type wayRow interface {
	[1]uint64 | [2]uint64 | [4]uint64 | [8]uint64 | [16]uint64 | [32]uint64 | [64]uint64
}

// walkLevel is the columnar walk's view of one level: the node mask,
// the offset of the level's first node record (a node's ways start at
// its record's index times the width, so no way offset is needed) and
// the level's pending associativity-A misses and MRA exits, added to
// Simulator.missA and Simulator.exitHist when the walk returns.
type walkLevel struct {
	mask          uint64
	nodeOff       int
	misses, exits uint64
}

// runsFIFO is the columnar FIFO walk at A = len(R) ways. Results are
// bit-identical to the instrumented path — batch_test.go, the stream
// equivalence tests and, at every width, TestStreamWalkEveryWidth
// enforce it.
//
// Go compiles one copy of this function per array length in wayRow, so
// A is a constant in each copy: the width tests below fold away, each
// node's row is sliced at constant length (so the unrolled compares and
// the victim write need no bounds checks), and the fingerprint word
// loop at 8+ ways has a fixed trip count.
//
// The walk sheds every piece of work-saving state the per-access walk
// maintains, keeping only the state results are made of:
//
//   - No wave pointers (Property 3). A level decided by a wave probe
//     reaches exactly the same hit way or miss verdict as the tag-list
//     scan it avoids, and the FIFO state evolves identically either
//     way. Dropping the machinery removes the only value carried
//     *across* levels (parentWave/parentIdx and the wave refresh — the
//     hottest store of the per-access walk), so every level of a walk
//     depends on blk alone and the CPU can overlap the levels' loads
//     freely.
//   - No MRE records (Property 4). The MRE tag check only spares scans,
//     and the resurrection swap only restores a wave pointer; neither
//     changes a verdict. Not maintaining them means a warm miss loads
//     no victim tag and stores no MRE state — an eviction is just the
//     cursor bump and the tag write.
//
// Both are work-saving devices, not result-changing ones, but leaving
// them stale would be unsound for the entry points that still use them,
// so a walk that inserted anything marks them stale, and the entry
// points that read them first reset them to "unknown" (settleWave) —
// always sound, merely unhelpful until repopulated. A streamed pass
// that never reads them never pays that sweep.
//
// A warm level (a full node, the steady state) updates without
// branching on its hit/miss outcome, which is close to a coin flip on
// real traces, so a branch on it would mispredict on most visits: the
// way/cursor/miss-count selections compile to conditional moves, and
// the tag write is idempotent on a hit (it rewrites the hit way's own
// tag). At 1, 2 and 4 ways the membership test is branch-free too: an
// unrolled scan (at most one comparison can match) of conditional
// moves.
//
// Levels of 8 or more ways decide membership from the fingerprint arena
// instead of the tag list: one 64-bit load and a SWAR byte match cover
// eight ways (matchFingerprint), masked to the fill on a cold node, and
// only the candidate ways' full tags are compared. A miss with no
// candidate — the common miss — reads no tag at all, and a hit reads
// one tag instead of half the list on average. The block's fingerprint
// is computed once per walk and serves every level.
func runsFIFO[R wayRow](s *Simulator, ids []uint64, runs []uint32) uint64 {
	const fpBytes = 8 // fingerprints per matchFingerprint word
	var width R
	A := len(width)
	nodes := s.nodes
	tags := s.tags
	fps := s.fps // nil below 8 ways

	var table [maxLogSets + 1]walkLevel
	levels := table[:len(s.levels)]
	for li := range levels {
		levels[li] = walkLevel{mask: s.levels[li].mask, nodeOff: s.levels[li].nodeOff}
	}
	nLevels := len(levels)

	// One tight pre-pass folds the whole weight column: the walk loop
	// then iterates over ids alone, with no per-run weight load.
	// Zero-weight entries (impossible in a materialized BlockStream,
	// where every run is at least 1, but legal in a hand-built call)
	// must not be simulated; the rare column containing one is
	// compacted first.
	var total uint64
	hasZero := false
	for _, w := range runs {
		total += uint64(w)
		if w == 0 {
			hasZero = true
		}
	}
	if hasZero {
		clean := make([]uint64, 0, len(ids))
		for i, blk := range ids {
			if runs[i] != 0 {
				clean = append(clean, blk)
			}
		}
		ids = clean
	}

	var fullWalks uint64 // walks that ran through every level
	var pf uint64        // prefetch sink; forces the touch loads to issue

	// An id equal to the one before it — in this call, or the last one
	// the previous call simulated — is a level-0 MRA hit: skip it.
	start := 0
	if len(ids) > 0 && s.lastOK && ids[0] == s.lastBlk {
		start = 1
	}

walk:
	for idx := start; idx < len(ids); idx++ {
		blk := ids[idx]
		if idx > 0 && blk == ids[idx-1] {
			continue
		}

		// Touch the next id's mid-level node records while this walk
		// runs: columnar materialization makes future block IDs visible,
		// so their scattered record loads — the dominant stall of the
		// walk — can start one walk early. The shallow levels' arenas
		// are permanently cache-resident and need no help.
		if idx+1 < len(ids) && nLevels > 6 {
			nb := ids[idx+1]
			pf += nodes[table[4].nodeOff+int(nb&table[4].mask)].mra
			pf += nodes[table[5].nodeOff+int(nb&table[5].mask)].mra
			pf += nodes[table[6].nodeOff+int(nb&table[6].mask)].mra
		}

		var f uint8
		if A >= fpBytes {
			f = fingerprint(blk)
		}

		for li := range levels {
			lv := &levels[li]
			ni := lv.nodeOff + int(blk&lv.mask)
			nd := &nodes[ni]
			fill := int(nd.fill)

			// Direct-mapped check, doubling as Property 2: decided from
			// the packed record alone (fill > 0 stands in for MRA
			// validity; see nodeState.mraValid).
			if nd.mra == blk && fill > 0 {
				lv.exits++
				continue walk
			}

			// The node's ways, at constant length. Masking an index
			// with A-1 (or a word offset with A-8) never changes it
			// below, but proves it in range, so the compiler drops the
			// bounds checks.
			base := ni * A
			row := tags[base : base+A : base+A]
			var fp []uint8
			if A >= fpBytes {
				fp = fps[base : base+A : base+A]
			}
			if fill == A {
				// Warm node: find the hit way (a node never holds
				// duplicate tags, so at most one way matches), then update
				// without branching on the outcome.
				hitWay := -1
				if A >= fpBytes {
				warm:
					for k := 0; k < A; k += fpBytes {
						for m := matchFingerprint(binary.LittleEndian.Uint64(fp[k&(A-fpBytes):][:fpBytes]), f); m != 0; m &= m - 1 {
							if w := (k + bits.TrailingZeros64(m)>>3) & (A - 1); row[w] == blk {
								hitWay = w
								break warm
							}
						}
					}
				} else {
					// 1, 2 or 4 ways: every comparison compiles to a
					// conditional move.
					if A == 4 {
						if row[3] == blk {
							hitWay = 3
						}
						if row[2] == blk {
							hitWay = 2
						}
					}
					if A >= 2 {
						if row[1] == blk {
							hitWay = 1
						}
					}
					if row[0] == blk {
						hitWay = 0
					}
				}
				victim := int(nd.head)
				miss := 0
				if hitWay < 0 {
					miss = 1
				}
				way := hitWay
				if hitWay < 0 {
					way = victim
				}
				way &= A - 1
				lv.misses += uint64(miss)
				nd.head = int8((victim + miss) & (A - 1))
				row[way] = blk
				if A >= fpBytes {
					fp[way] = f
				}
				nd.mra = blk
				continue
			}

			// Cold node (fill < A, so a miss inserts without a victim):
			// the same decisions Access makes minus the counters and the
			// wave/MRE bookkeeping.
			hitWay := -1
			if A >= fpBytes {
			search:
				for k := 0; k < fill; k += fpBytes {
					// Ways at or beyond fill hold stale bytes; a shift of
					// 64 or more leaves the mask all ones.
					m := matchFingerprint(binary.LittleEndian.Uint64(fp[k&(A-fpBytes):][:fpBytes]), f) &
						(1<<(uint(fill-k)*8) - 1)
					for ; m != 0; m &= m - 1 {
						if w := (k + bits.TrailingZeros64(m)>>3) & (A - 1); row[w] == blk {
							hitWay = w
							break search
						}
					}
				}
			} else {
				for w := 0; w < fill; w++ {
					if row[w&(A-1)] == blk {
						hitWay = w
						break
					}
				}
			}
			if hitWay < 0 {
				lv.misses++
				way := fill & (A - 1)
				nd.fill++
				row[way] = blk
				if A >= fpBytes {
					fp[way] = f
				}
			}
			nd.mra = blk
		}
		fullWalks++
	}

	// Any insertion moved a way, leaving the wave domain stale.
	for li, lv := range levels {
		s.missA[li] += lv.misses
		s.exitHist[li] += lv.exits
		if lv.misses > 0 {
			s.waveStale = true
		}
	}
	s.exitHist[nLevels] += fullWalks
	if len(ids) > 0 {
		s.lastBlk, s.lastOK = ids[len(ids)-1], true
	}
	s.pfSink = pf
	return total
}

// settleWave applies the reset runsFastFIFO left pending: it marks
// every wave pointer and MRE record "unknown". The empty states are
// always sound — Property 3, Property 4 and the resurrection restore
// simply fall back to scans until repopulated by the entry points that
// maintain them.
func (s *Simulator) settleWave() {
	if !s.waveStale {
		return
	}
	s.waveStale = false
	for i := range s.wave {
		s.wave[i] = -1
	}
	s.clearMRE()
}
