package core

import "fmt"

// CheckInvariants exhaustively validates the structural invariants the
// DEW correctness argument rests on. It is O(nodes × assoc) and intended
// for tests and debugging, not for per-access use. The invariants:
//
//  1. Bookkeeping ranges: fill ≤ A, head < A, wave pointers in [-1, A).
//  2. No duplicate tags within a node's live ways (a set holds a block
//     at most once).
//  3. MRA residency: a node's MRA tag is present in its tag list (it was
//     inserted on its last miss or already resident on its last hit).
//  4. MRA chain (Property 2's induction): if a node's MRA is b, then the
//     child node on b's path also has MRA b — this is what makes the
//     cut-off sound for every deeper level.
//  5. MRE exclusion (Property 4's soundness): a node's MRE tag is not in
//     its tag list.
//  6. Wave soundness (Property 3): a live entry (b, w≥0) implies the
//     child node on b's path either holds b exactly at way w, or does
//     not hold b at all.
//  7. Fingerprints (passes of 8 or more ways): every live way's
//     fingerprint byte equals the fingerprint of its tag, so the
//     columnar walk's byte match cannot miss a resident tag.
//
// A wave-domain reset left pending by the columnar FIFO walk is applied
// first, so 5 and 6 see the state the next reader sees. A simulator that
// has only run the columnar walk has no MRE or wave arena yet, so 5 and
// 6 (and 1's wave range) hold vacuously.
func (s *Simulator) CheckInvariants() error {
	s.settleWave()
	for li := range s.levels {
		lv := &s.levels[li]
		nodes := int(lv.mask) + 1
		for node := 0; node < nodes; node++ {
			base := node * s.assoc
			fill := int(lv.node[node].fill)
			if fill < 0 || fill > s.assoc {
				return fmt.Errorf("core: level %d node %d: fill %d out of range", li, node, fill)
			}
			if h := lv.node[node].head; h < 0 || int(h) >= s.assoc {
				return fmt.Errorf("core: level %d node %d: head %d out of range", li, node, h)
			}
			for w := 0; w < fill; w++ {
				if lv.wave != nil {
					if v := lv.wave[base+w]; v < -1 || int(v) >= s.assoc {
						return fmt.Errorf("core: level %d node %d way %d: wave %d out of range", li, node, w, v)
					}
				}
				for w2 := w + 1; w2 < fill; w2++ {
					if lv.tags[base+w] == lv.tags[base+w2] {
						return fmt.Errorf("core: level %d node %d: duplicate tag %#x at ways %d and %d",
							li, node, lv.tags[base+w], w, w2)
					}
				}
			}

			find := func(l *level, n int, b uint64) int {
				nb := n * s.assoc
				for w := 0; w < int(l.node[n].fill); w++ {
					if l.tags[nb+w] == b {
						return w
					}
				}
				return -1
			}

			if lv.node[node].mraValid() {
				b := lv.node[node].mra
				if find(lv, node, b) < 0 {
					return fmt.Errorf("core: level %d node %d: MRA %#x not resident", li, node, b)
				}
				if li+1 < len(s.levels) {
					child := &s.levels[li+1]
					cn := int(b & child.mask)
					if cn&int(lv.mask) != node {
						return fmt.Errorf("core: level %d node %d: MRA %#x maps to child %d off the node's subtree",
							li, node, b, cn)
					}
					if !child.node[cn].mraValid() || child.node[cn].mra != b {
						return fmt.Errorf("core: level %d node %d: MRA chain broken: child node %d MRA %#x (ok=%v), want %#x",
							li, node, cn, child.node[cn].mra, child.node[cn].mraValid(), b)
					}
				}
			}

			if lv.mre != nil && lv.mre[node].ok {
				if find(lv, node, lv.mre[node].tag) >= 0 {
					return fmt.Errorf("core: level %d node %d: MRE %#x still resident", li, node, lv.mre[node].tag)
				}
			}

			if lv.fps != nil {
				for w := 0; w < fill; w++ {
					if got, want := lv.fps[base+w], fingerprint(lv.tags[base+w]); got != want {
						return fmt.Errorf("core: level %d node %d way %d: fingerprint %#02x, tag %#x hashes to %#02x",
							li, node, w, got, lv.tags[base+w], want)
					}
				}
			}

			if li+1 < len(s.levels) && lv.wave != nil {
				child := &s.levels[li+1]
				for w := 0; w < fill; w++ {
					v := lv.wave[base+w]
					if v < 0 {
						continue
					}
					b := lv.tags[base+w]
					cn := int(b & child.mask)
					at := find(child, cn, b)
					if at >= 0 && at != int(v) {
						return fmt.Errorf("core: level %d node %d way %d: wave %d but tag %#x at child way %d",
							li, node, w, v, b, at)
					}
				}
			}
		}
	}
	return nil
}
