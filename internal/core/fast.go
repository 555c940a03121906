package core

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

// accessFast is Access with the instrumentation compiled out: the same
// walk down the simulation tree deciding each node by P2 (MRA), P3
// (wave) or P4 (MRE) before falling back to a tag-list scan, mutating
// exactly the same state in exactly the same order, so results are
// bit-identical to the instrumented path.
//
// It walks the level-major arenas directly — the flattened level loop:
// the per-level node mask and arena offsets are computed incrementally
// in registers (mask doubles, offsets advance by the previous level's
// size), so the only memory a level touches before its MRA verdict is
// the node's own packed record. The arena slice headers are hoisted into
// locals once, outside the loop. Relative to Access, the control flow is
// also flattened: comparisons are ordered so the common case pays one
// branch (tag first, validity flag second — both pure loads), the MRE
// resurrection test is computed at a single site (re-checking
// mre == blk is idempotent, so the two-site instrumented flow and this
// one always agree), and the level-0 "no parent yet" case writes its
// parent wave refresh into a dedicated scratch slot at the end of the
// wave arena instead of branching on has-parent at every level.
func (s *Simulator) accessFast(blk uint64) {
	assoc := s.assoc
	nodes := s.nodes
	tags := s.tags
	wave := s.wave
	missA := s.missA
	exitHist := s.exitHist
	nLevels := len(s.levels)
	isLRU := s.isLRU

	mask := uint64(1)<<uint(s.opt.MinLogSets) - 1 // level-0 node mask, doubling per level
	nodeOff := 0                                  // arena offset of the level's node records
	wayOff := 0                                   // arena offset of the level's way entries

	parentWave := int8(-1)     // wave pointer read from the parent's matching entry
	parentIdx := len(wave) - 1 // arena index of the parent's matching entry; starts at the scratch slot

	for li := 0; li < nLevels; li++ {
		node := int(blk & mask)
		nd := &nodes[nodeOff+node]
		levelNodes := int(mask) + 1
		nodeOff += levelNodes
		base := wayOff + node*assoc
		wayOff += levelNodes * assoc
		mask = mask<<1 | 1

		// Direct-mapped check, doubling as Property 2. nd is one packed
		// record, so the usual outcome of a level — MRA hit, return — is
		// decided from a single cache line.
		if nd.mra == blk && nd.fill > 0 {
			// P2: hit here and at every deeper level; FIFO and LRU state
			// are unaffected by hits, so the walk stops. The exit depth
			// stands in for the per-level missDM increments (see
			// Simulator.exitHist).
			exitHist[li]++
			return
		}

		fill := int(nd.fill)

		// Decide associativity-A membership: P3, then P4, then scan.
		hitWay := -1
		if parentWave >= 0 {
			// P3: one probe decides hit or miss.
			w := int(parentWave)
			if w < fill && tags[base+w] == blk {
				hitWay = w
			}
		} else if nd.mre == blk && nd.mreOK {
			// P4: the most recently evicted tag cannot be resident —
			// a decided miss, no scan. The eviction path below re-derives
			// the resurrection from the same comparison.
		} else {
			if fill == 4 {
				// Unrolled branch-light scan for the ubiquitous warm
				// 4-way node: a node never holds duplicate tags
				// (CheckInvariants invariant 2), so at most one
				// comparison matches and scan order cannot change the
				// outcome — these compile to conditional moves instead
				// of a data-dependent break.
				if tags[base+3] == blk {
					hitWay = 3
				}
				if tags[base+2] == blk {
					hitWay = 2
				}
				if tags[base+1] == blk {
					hitWay = 1
				}
				if tags[base] == blk {
					hitWay = 0
				}
			} else {
				for w := 0; w < fill; w++ {
					if tags[base+w] == blk {
						hitWay = w
						break
					}
				}
			}
		}

		var n int
		coldFill := false
		if hitWay >= 0 {
			// Algorithm 1: Handle_hit.
			n = hitWay
		} else {
			// Algorithm 2: Handle_miss.
			missA[li]++
			if fill < assoc {
				// Cold fill: no eviction, wave pointer unknown.
				n = fill
				coldFill = true
				nd.fill++
				tags[base+n] = blk
				wave[base+n] = -1
			} else {
				if isLRU {
					// LRU victim: the recency list's LRU endpoint, O(1).
					n = int(nd.lruWay)
				} else {
					n = int(nd.head)
					nd.head = int8((n + 1) & (assoc - 1))
				}
				victimTag := tags[base+n]
				victimWave := wave[base+n]
				if nd.mre == blk && nd.mreOK {
					// Algorithm 2 lines 4-5: the requested tag is the
					// MRE — exchange the victim with the MRE entry,
					// restoring the tag's saved wave pointer.
					tags[base+n] = blk
					wave[base+n] = nd.mreWave
					nd.mre = victimTag
					nd.mreWave = victimWave
				} else {
					tags[base+n] = blk
					wave[base+n] = -1
					nd.mre = victimTag
					nd.mreWave = victimWave
					nd.mreOK = true
				}
			}
		}

		if isLRU {
			// Refresh LRU recency; the way's position never changes, so
			// wave pointers into and out of this entry stay valid.
			if coldFill {
				lruInsert(nd, s.older, s.newer, base, n)
			} else {
				lruTouch(nd, s.older, s.newer, base, n)
			}
		}

		nd.mra = blk
		wave[parentIdx] = int8(n)
		parentWave = wave[base+n]
		parentIdx = base + n
	}
	exitHist[nLevels]++
}
