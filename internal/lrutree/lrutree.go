// Package lrutree is a single-pass multi-configuration simulator for the
// LRU replacement policy, in the spirit of the related work the DEW paper
// builds on: Janapsatya's binomial-tree method (ASP-DAC'06, reference
// [13]) with pruning enhancements in the spirit of the CRCB algorithm
// (ASP-DAC'09, reference [20]).
//
// It serves three roles in this repository: an executable model of the
// LRU inclusion properties that DEW cannot use under FIFO (Section 1 of
// the paper), the LRU counterpart for the policy-comparison example, and
// a same-codebase baseline for the "single-pass vs per-configuration"
// speed argument under a different policy.
//
// The simulation tree is the same binomial structure DEW uses: level L
// holds the 2^L sets of the configuration with 2^L sets (a forest of
// 2^MinLogSets trees when MinLogSets > 0); an access visits one node per
// level. Each node keeps its tag list in recency order (most recently
// used first), so the node's head is simultaneously the content of the
// direct-mapped configuration at that level, and searches touch hot tags
// first (Janapsatya's temporal-locality search order).
//
// Pruning rules (each an LRU-only property):
//
//   - Same-block pruning (CRCB-style): a request to the same block as the
//     immediately preceding request hits every configuration and changes
//     no LRU state; the access is skipped entirely.
//   - MRU cut-off: if the requested tag is at the MRU position of a node,
//     then — by the same containment argument as DEW's Property 2 — it is
//     the MRU tag of the relevant set in every deeper level, the access
//     hits everywhere below, and every reorder is a no-op: the walk
//     stops.
//   - Inclusion: a hit at set count S implies a hit at every larger set
//     count (equal associativity and block size), so once a level hits,
//     deeper levels take no miss counting — but their recency orders
//     still need updating, which bounds how much work inclusion alone
//     can save and motivates the cut-off rules.
//
// # Per-access and stream paths
//
// The simulator exposes two equivalent evaluation paths. Access (and
// Simulate) walks the per-level views one access at a time. The stream
// entry points AccessRuns / SimulateStream are the fast path: one walk
// per run of a block stream over the level-major nodeState arena — the
// same layout the DEW core's fast path uses — with the per-level miss
// splits for the direct-mapped configurations recovered from an
// exit-depth histogram. The two paths are bit-identical in Results
// (fast_test.go enforces it).
//
// The engine package runs the set-sharded parallel form of a pass on
// this simulator as it does on the DEW core's: one shallow Simulator
// plus 2^S per-tree Simulators replaying the substreams of a
// trace.ShardStream, stitched bit-identical to the monolithic pass.
// Reset reuses the arenas across repeated passes.
package lrutree

import (
	"fmt"
	"math/bits"

	"dew/internal/cache"
	"dew/internal/trace"
)

// Options configures one LRU tree pass, covering set counts 2^MinLogSets
// .. 2^MaxLogSets at one associativity and block size (plus direct-mapped
// results for free).
type Options struct {
	// MinLogSets and MaxLogSets bound the simulated set counts as log2.
	MinLogSets, MaxLogSets int
	// Assoc is the associativity (power of two, 1..64).
	Assoc int
	// BlockSize is the block size in bytes (power of two).
	BlockSize int
}

// Validate reports whether the options are simulatable.
func (o Options) Validate() error {
	if o.MinLogSets < 0 || o.MaxLogSets < o.MinLogSets {
		return fmt.Errorf("lrutree: invalid set-count range [2^%d, 2^%d]", o.MinLogSets, o.MaxLogSets)
	}
	if o.MaxLogSets > 22 {
		return fmt.Errorf("lrutree: max log2 set count %d exceeds supported 22", o.MaxLogSets)
	}
	if o.Assoc < 1 || o.Assoc > 64 || o.Assoc&(o.Assoc-1) != 0 {
		return fmt.Errorf("lrutree: associativity must be a power of two in [1, 64], got %d", o.Assoc)
	}
	if o.BlockSize < 1 || o.BlockSize&(o.BlockSize-1) != 0 {
		return fmt.Errorf("lrutree: block size must be a positive power of two, got %d", o.BlockSize)
	}
	return nil
}

// Levels returns the number of tree levels.
func (o Options) Levels() int { return o.MaxLogSets - o.MinLogSets + 1 }

// nodeState packs one node's (one cache set's) metadata into a single
// record: the MRU tag the direct-mapped check reads on every visit —
// always equal to the head of the node's recency list — plus the fill
// count. The usual outcome of a level (MRU cut-off, walk stops) is
// decided from this one record without touching the tag list, the same
// trick the DEW core's nodeState plays with its MRA tag.
type nodeState struct {
	mru  uint64 // most recently used tag (= the DM configuration's content); valid when fill > 0
	fill int8   // number of valid ways
}

// level holds the per-level views into the arenas: node i of a level
// with 2^log sets owns entries [i*assoc, (i+1)*assoc) of tags and record
// i of node, in recency order (tags[base] is MRU).
type level struct {
	mask uint64 // 2^log - 1
	tags []uint64
	node []nodeState
}

// Simulator is one LRU tree pass in progress.
//
// All per-way and per-node state lives in two level-major arenas (nodes,
// tags); each level's slices are views into them. The per-access path
// walks the per-level views, the fast path walks the arenas directly
// with incrementally computed masks and offsets — same memory, same
// results.
type Simulator struct {
	opt     Options
	offBits uint
	assoc   int
	levels  []level

	// Arenas backing every level's slices, concatenated in level order.
	nodes []nodeState
	tags  []uint64

	// missDM and missA hold each level's miss counts for the
	// associativity-1 and associativity-A configurations, in two dense
	// arrays (the hottest writes of the walk).
	missDM []uint64
	missA  []uint64

	// exitHist is the fast path's pending exit-depth histogram:
	// exitHist[d] counts accesses whose walk ended with the MRU cut-off
	// at level d (or d == Levels() for full walks). A walk increments
	// missDM at exactly the levels before its exit, so
	// missDM[l] ≡ Σ_{d>l} exitHist[d]; foldExitHist folds the suffix
	// sums back after each stream chunk.
	exitHist []uint64

	// havePrev/prevBlk memoize the most recently simulated block for
	// same-block pruning; the fast path shares them so entry points can
	// be mixed on one Simulator.
	havePrev bool
	prevBlk  uint64

	// accesses counts the requests simulated, pruned ones included.
	accesses uint64
}

// New builds a Simulator for the options.
func New(opt Options) (*Simulator, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		opt:     opt,
		offBits: uint(bits.TrailingZeros(uint(opt.BlockSize))),
		assoc:   opt.Assoc,
		levels:  make([]level, opt.Levels()),
	}
	totalNodes := 0
	for i := range s.levels {
		totalNodes += 1 << (opt.MinLogSets + i)
	}
	s.nodes = make([]nodeState, totalNodes)
	s.tags = make([]uint64, totalNodes*opt.Assoc)
	s.missDM = make([]uint64, opt.Levels())
	s.missA = make([]uint64, opt.Levels())
	s.exitHist = make([]uint64, opt.Levels()+1)
	nodeOff, wayOff := 0, 0
	for i := range s.levels {
		nodes := 1 << (opt.MinLogSets + i)
		ways := nodes * opt.Assoc
		lv := &s.levels[i]
		lv.mask = uint64(nodes - 1)
		lv.node = s.nodes[nodeOff : nodeOff+nodes : nodeOff+nodes]
		lv.tags = s.tags[wayOff : wayOff+ways : wayOff+ways]
		nodeOff += nodes
		wayOff += ways
	}
	return s, nil
}

// Reset returns the simulator to its freshly constructed state while
// keeping both arena allocations, so repeated passes — benchmark
// iterations, sweep cells, per-shard tree replays — run with zero
// steady-state allocations. The tag arena can stay stale: every read of
// a way is gated on the owning node's fill count (and the MRU check on
// fill > 0), which Reset zeroes, so a stale entry is unreachable until
// an insertion rewrites it — exactly as an uninitialized entry is after
// New.
func (s *Simulator) Reset() {
	clear(s.nodes)
	clear(s.missDM)
	clear(s.missA)
	clear(s.exitHist)
	s.accesses = 0
	s.havePrev, s.prevBlk = false, 0
}

// Rebind re-targets the simulator to another block size and resets it,
// keeping both arenas (their shape does not depend on the block size).
func (s *Simulator) Rebind(blockSize int) error {
	opt := s.opt
	opt.BlockSize = blockSize
	if err := opt.Validate(); err != nil {
		return err
	}
	s.opt = opt
	s.offBits = uint(bits.TrailingZeros(uint(blockSize)))
	s.Reset()
	return nil
}

// Access simulates one request against every configuration of the pass.
func (s *Simulator) Access(a trace.Access) {
	blk := a.Addr >> s.offBits
	s.accesses++

	if s.havePrev && blk == s.prevBlk {
		// Same-block pruning: a repeat hits everywhere and every
		// LRU reorder is a no-op.
		return
	}
	s.havePrev = true
	s.prevBlk = blk

	for li := range s.levels {
		lv := &s.levels[li]
		node := int(blk & lv.mask)
		nd := &lv.node[node]
		base := node * s.assoc

		fill := int(nd.fill)
		// Direct-mapped check (the MRU tag is the DM content), doubling
		// as the MRU cut-off: the tag is MRU here, hence MRU in every
		// deeper set it maps to — hits everywhere below, no state
		// changes.
		if fill > 0 && nd.mru == blk {
			return
		}
		s.missDM[li]++

		// Scan the recency list (skipping the MRU slot already tested).
		hitAt := -1
		for w := 1; w < fill; w++ {
			if lv.tags[base+w] == blk {
				hitAt = w
				break
			}
		}
		if hitAt >= 0 {
			// Hit: rotate the tag to the MRU position.
			copy(lv.tags[base+1:base+hitAt+1], lv.tags[base:base+hitAt])
			lv.tags[base] = blk
			nd.mru = blk
			continue
		}

		// Miss: insert at MRU, evicting the LRU tail if full.
		s.missA[li]++
		if fill < s.assoc {
			copy(lv.tags[base+1:base+fill+1], lv.tags[base:base+fill])
			nd.fill++
		} else {
			copy(lv.tags[base+1:base+s.assoc], lv.tags[base:base+s.assoc-1])
		}
		lv.tags[base] = blk
		nd.mru = blk
	}
}

// Simulate drains the reader through the per-access path. Reads are
// batched (trace.BatchReader) so the reader is consulted once per
// chunk. For the fast path use SimulateStream.
func (s *Simulator) Simulate(r trace.Reader) error {
	return trace.Drain(r, func(batch []trace.Access) {
		for _, a := range batch {
			s.Access(a)
		}
	})
}

// Result pairs a configuration with its outcome.
type Result struct {
	Config cache.Config
	cache.Stats
}

// Results returns exact statistics for every covered configuration, in
// ascending set count, direct-mapped before A-way (matching the DEW
// core's Results layout).
func (s *Simulator) Results() []Result {
	opt, accesses := s.opt, s.accesses
	var out []Result
	for i := 0; i < opt.Levels(); i++ {
		sets := 1 << (opt.MinLogSets + i)
		if opt.Assoc > 1 {
			out = append(out, Result{
				Config: cache.Config{Sets: sets, Assoc: 1, BlockSize: opt.BlockSize},
				Stats:  cache.Stats{Accesses: accesses, Misses: s.missDM[i]},
			})
		}
		out = append(out, Result{
			Config: cache.Config{Sets: sets, Assoc: opt.Assoc, BlockSize: opt.BlockSize},
			Stats:  cache.Stats{Accesses: accesses, Misses: s.missA[i]},
		})
	}
	return out
}

// Run builds a Simulator, drains the reader and returns it.
func Run(opt Options, r trace.Reader) (*Simulator, error) {
	s, err := New(opt)
	if err != nil {
		return nil, err
	}
	if err := s.Simulate(r); err != nil {
		return nil, err
	}
	return s, nil
}
