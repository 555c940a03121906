package refsim

import (
	"fmt"

	"dew/internal/cache"
	"dew/internal/trace"
)

// SimulateStream replays a run-length-compressed block stream and
// returns the final statistics. The stream must have been materialized
// at the simulator's block size; the simulator then consumes block IDs
// directly, with no per-access address decode, and folds run weights
// arithmetically — the same sharing the multi-configuration simulators
// exploit, kept available here so the reference baseline can replay the
// identical stream the DEW pass consumed.
//
// Folding is exact for the kind-free statistics: every access after the
// first of a run re-requests the block the previous access just made
// resident, so it hits, changes no replacement state (FIFO and Random
// do nothing on hits; the LRU touch re-asserts an already-MRU block),
// and costs a deterministic number of tag comparisons — one under LRU
// (the block sits at the head of the recency-ordered search), and
// way+1 under FIFO/Random's physical-order search, where way is where
// the head access left the block. Accesses, Misses, CompulsoryMisses,
// Evictions and TagComparisons are therefore bit-identical to replaying
// the expanded trace.
//
// A kind-free BlockStream carries no request kinds, so AccessesByKind
// and MissesByKind stay zero on that path, and write-policy simulators
// (built with NewSim), whose store handling must see kinds, reject it.
// A kind-preserving stream (trace.MaterializeBlockStreamWithKinds)
// replays through the kind-aware fold instead: per-kind statistics are
// maintained, and write-policy simulators fold each run exactly under
// their write/alloc policies (see simulateKindStream).
func (s *Simulator) SimulateStream(bs *trace.BlockStream) (Stats, error) {
	if bs.BlockSize != s.cfg.BlockSize {
		return s.stats, fmt.Errorf("refsim: stream materialized at block size %d, configuration uses %d",
			bs.BlockSize, s.cfg.BlockSize)
	}
	if bs.HasKinds() {
		return s.simulateKindStream(bs)
	}
	if s.dirty != nil {
		return s.stats, fmt.Errorf("refsim: write-policy simulation needs a kind-preserving stream (materialize with kinds) or the raw trace")
	}
	// The hot loop of every reference pass: the search runs inline, the
	// counters live in locals until the call returns, and comparisons
	// are counted arithmetically (a hit at search position i costs i+1,
	// a miss one per valid way, each repeat of a run its head's cost).
	setMask := s.cfg.Sets - 1
	idxBits := uint(s.cfg.IndexBits())
	assoc := s.cfg.Assoc
	lru := s.policy == cache.LRU
	tags, fill, order := s.tags, s.fill, s.order
	var accesses, misses, compulsory, cmps uint64
	for i, blk := range bs.IDs {
		w := uint64(bs.Runs[i])
		if w == 0 {
			continue
		}
		set := int(blk) & setMask
		tag := blk >> idxBits
		base := set * assoc
		n := int(fill[set])
		accesses += w

		way, probes := -1, n
		if lru {
			for j, o := range order[base : base+n] {
				if tags[base+int(o)] == tag {
					way, probes = int(o), j+1
					copy(order[base+1:base+j+1], order[base:base+j])
					order[base] = o
					break
				}
			}
		} else {
			for j, t := range tags[base : base+n] {
				if t == tag {
					way, probes = j, j+1
					break
				}
			}
		}
		cmps += uint64(probes)
		if way < 0 {
			misses++
			if s.seen.add(blk) {
				compulsory++
			}
			way = s.install(set, tag)
		}
		// The run's repeats hit, charged as foldRepeats does (the LRU
		// touch of an MRU block is a no-op).
		if lru {
			cmps += w - 1
		} else {
			cmps += (w - 1) * uint64(way+1)
		}
	}
	s.stats.Accesses += accesses
	s.stats.Misses += misses
	s.stats.CompulsoryMisses += compulsory
	s.stats.TagComparisons += cmps
	return s.stats, nil
}

// simulateKindStream replays a kind-preserving stream, folding each run
// exactly under the simulator's policies. The fold extends the kind-free
// argument: within a run every access touches one block, and once any
// access installs it the block stays resident for the rest of the run,
// so a run's per-access outcome is fully determined by its KindRun
// record — the per-kind weights plus the leading-store count and first
// non-store kind (see trace.KindRun). Three shapes cover every
// WritePolicy × AllocPolicy combination:
//
//   - Resident at the head: every access hits. Stores mark the dirty
//     bit (write-back) or each send storeBytes to memory
//     (write-through).
//   - Installing miss (write-allocate, or the run opens with a
//     non-store): the first access misses, fills and installs; the rest
//     hit, with the same repeat tag-comparison costs as the kind-free
//     fold.
//   - Bypassing miss (no-write-allocate and the run opens with stores):
//     each of the Lead leading stores misses and bypasses without
//     installing, re-scanning the set; the first non-store (if any)
//     misses, fills and installs; the remainder hits.
//
// The results — every statistic and the traffic counters — are
// bit-identical to replaying the expanded per-access trace through
// Access.
func (s *Simulator) simulateKindStream(bs *trace.BlockStream) (Stats, error) {
	setMask := s.cfg.Sets - 1
	idxBits := uint(s.cfg.IndexBits())
	lru := s.policy == cache.LRU
	for i, blk := range bs.IDs {
		w := bs.Runs[i]
		if w == 0 {
			continue
		}
		kr := bs.Kinds[i]
		set := int(blk) & setMask
		tag := blk >> idxBits

		s.stats.Accesses += uint64(w)
		for k := range kr.W {
			s.stats.AccessesByKind[k] += uint64(kr.W[k])
		}

		if s.dirty == nil {
			// No write policies in play: the kind-free fold plus per-kind
			// miss attribution (only the head access can miss, and its
			// kind is the record's first).
			way := s.findWay(set, tag)
			if way >= 0 {
				if lru {
					s.touchLRU(set, way)
				}
			} else {
				s.stats.Misses++
				s.stats.MissesByKind[kr.FirstKind()]++
				if s.seen.add(blk) {
					s.stats.CompulsoryMisses++
				}
				way = s.install(set, tag)
			}
			s.foldRepeats(uint64(w-1), way)
			continue
		}

		writes := uint64(kr.W[trace.DataWrite])
		base := set * s.cfg.Assoc
		way := s.findWay(set, tag)
		if way >= 0 {
			// Resident: the whole run hits.
			if lru {
				s.touchLRU(set, way)
			}
			s.foldRepeats(uint64(w-1), way)
			if writes > 0 {
				if s.write == WriteBack {
					s.dirty[base+way] = true
				} else {
					s.traffic.BytesToMemory += writes * uint64(s.storeBytes)
				}
			}
			continue
		}

		if s.alloc == NoWriteAllocate && kr.FirstKind() == trace.DataWrite {
			// Bypassing miss: the Lead leading stores each miss without
			// installing. Only the first can be compulsory; each re-scan
			// of the unchanged set costs the same comparisons findWay
			// just counted.
			lead := uint64(kr.Lead)
			s.stats.Misses += lead
			s.stats.MissesByKind[trace.DataWrite] += lead
			if s.seen.add(blk) {
				s.stats.CompulsoryMisses++
			}
			s.traffic.BytesToMemory += lead * uint64(s.storeBytes)
			fillCount := uint64(s.fill[set])
			s.stats.TagComparisons += (lead - 1) * fillCount
			if kr.AllWrites() {
				continue // nothing installs; the block stays cold
			}
			// The first non-store scans, misses and installs.
			s.stats.TagComparisons += fillCount
			s.stats.Misses++
			s.stats.MissesByKind[kr.First]++
			way = s.install(set, tag)
			s.foldRepeats(uint64(w)-lead-1, way)
			// Stores after the install hit the now-resident block.
			if remWrites := writes - lead; remWrites > 0 {
				if s.write == WriteBack {
					s.dirty[base+way] = true
				} else {
					s.traffic.BytesToMemory += remWrites * uint64(s.storeBytes)
				}
			}
			continue
		}

		// Installing miss: the head access misses, fills and installs;
		// the rest of the run hits.
		s.stats.Misses++
		s.stats.MissesByKind[kr.FirstKind()]++
		if s.seen.add(blk) {
			s.stats.CompulsoryMisses++
		}
		way = s.install(set, tag)
		s.foldRepeats(uint64(w-1), way)
		if writes > 0 {
			if s.write == WriteBack {
				s.dirty[base+way] = true
			} else {
				s.traffic.BytesToMemory += writes * uint64(s.storeBytes)
			}
		}
	}
	return s.stats, nil
}

// foldRepeats charges n repeat accesses to the block resident in way:
// under LRU it is MRU, so each hits on the first probe; the
// physical-order search stops at its way.
func (s *Simulator) foldRepeats(n uint64, way int) {
	if s.policy != cache.LRU {
		n *= uint64(way + 1)
	}
	s.stats.TagComparisons += n
}

// RunStream builds a Simulator and replays the stream through it.
func RunStream(cfg cache.Config, policy cache.Policy, bs *trace.BlockStream) (Stats, error) {
	s, err := New(cfg, policy)
	if err != nil {
		return Stats{}, err
	}
	return s.SimulateStream(bs)
}
