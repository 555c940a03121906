// Package refsim is a trace-driven single-configuration cache simulator
// in the role Dinero IV plays in the DEW paper: the exact, widely-trusted
// baseline that simulates one (sets, associativity, block size, policy)
// combination per pass and keeps the full Dinero-style statistics set
// (per-kind counts, compulsory-miss classification, eviction counts, tag
// comparisons).
//
// Compulsory misses are classified the way Dinero IV's "infinite cache"
// does it: every block ever referenced is recorded in one bitmap per
// aligned range of 512 blocks, not in a per-block hash, so the full
// information set costs a miss a bit test in a memoized bitmap rather
// than a hash probe per block.
//
// It is deliberately policy-general (FIFO, LRU, Random) and
// configuration-general where DEW is specialized; the experiment harness
// replays the trace through one Simulator per configuration exactly as
// the paper ran Dinero IV once per configuration, and the DEW test suite
// uses it as the exactness oracle.
package refsim

import (
	"fmt"

	"dew/internal/cache"
	"dew/internal/trace"
)

// Stats is the full statistics record of one simulation, a superset of
// cache.Stats modeled on Dinero IV's output. Maintaining this "large
// information set" is part of what the paper charges to Dinero's runtime;
// keeping it here keeps the comparison honest. CompulsoryMisses is
// classified against a per-range bitmap of every block referenced, the
// analogue of Dinero IV's infinite cache.
type Stats struct {
	cache.Stats

	// Per-kind access and miss counts (indexed by trace.Kind).
	AccessesByKind [3]uint64
	MissesByKind   [3]uint64

	// CompulsoryMisses counts first-ever references to a block (cold
	// misses). The remainder of Misses are capacity/conflict misses.
	CompulsoryMisses uint64

	// Evictions counts valid blocks displaced by fills.
	Evictions uint64

	// TagComparisons counts every tag equality test performed while
	// searching sets — the cost metric Table 3 of the paper reports.
	TagComparisons uint64
}

// Simulator simulates a single cache configuration over a stream of
// accesses.
type Simulator struct {
	cfg    cache.Config
	policy cache.Policy

	// tags holds Sets×Assoc entries; tags[s*assoc+w] is way w of set s.
	tags []uint64
	// fill is the number of valid ways per set: ways [0, fill) of a set
	// hold blocks, and no search reads past them.
	fill []int32
	// head is the FIFO round-robin insertion cursor per set.
	head []int32
	// order holds the LRU recency permutation per set: order[s*assoc+i]
	// is the way index of the i-th most recently used block.
	order []int8

	// seen records every block address ever referenced, for
	// compulsory-miss classification (Dinero keeps the same information
	// in its infinite cache).
	seen blockSet

	// rnd is the deterministic replacement stream for cache.Random.
	rnd uint64

	// Write-policy state, active only for simulators built with NewSim
	// (dirty non-nil): see write.go.
	write      WritePolicy
	alloc      AllocPolicy
	storeBytes int
	// fillBytes is the memory-traffic cost of one block fill or dirty
	// writeback. Normally cfg.BlockSize; a sharded sub-simulator runs at
	// a widened block size that is an addressing trick, so NewShardedSim
	// overrides it with the parent block size.
	fillBytes int
	dirty     []bool
	traffic   Traffic

	stats Stats
}

// New returns a Simulator for the configuration and policy. The
// configuration must validate, and associativity must fit the internal
// recency encoding (≤ 127, far beyond the paper's 16).
func New(cfg cache.Config, policy cache.Policy) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Assoc > 127 {
		return nil, fmt.Errorf("refsim: associativity %d exceeds supported 127", cfg.Assoc)
	}
	n := cfg.Sets * cfg.Assoc
	s := &Simulator{
		cfg:       cfg,
		policy:    policy,
		tags:      make([]uint64, n),
		fill:      make([]int32, cfg.Sets),
		head:      make([]int32, cfg.Sets),
		rnd:       0x9E3779B97F4A7C15,
		fillBytes: cfg.BlockSize,
	}
	if policy == cache.LRU {
		s.order = make([]int8, n)
	}
	return s, nil
}

// Reset returns the simulator to its freshly constructed state —
// cold cache, empty reference history, zeroed statistics and a rewound
// random-replacement stream — reusing the allocated arenas so a
// build-once-replay-many loop settles into zero steady-state
// allocations (the seen-block bitmaps are cleared, keeping their slab).
// Only per-set state and the dirty bits are cleared: every read of a
// way's tag or recency slot is gated on its set's fill count, which
// Reset zeroes, so stale tags and recency entries stay unreachable until
// an install rewrites them. The dirty bits are cleared because an
// install assumes a cold way is clean.
func (s *Simulator) Reset() {
	clear(s.fill)
	clear(s.head)
	s.seen.Reset()
	clear(s.dirty)
	s.rnd = 0x9E3779B97F4A7C15
	s.traffic = Traffic{}
	s.stats = Stats{}
}

// Prefault writes every arena once over its whole capacity and resets
// the simulator, so the pages behind freshly allocated arenas are
// mapped now rather than inside the first pass that touches them.
// Stale ways are unreachable (see Reset), so zeroing them is safe
// between passes.
func (s *Simulator) Prefault() {
	clear(s.tags[:cap(s.tags)])
	clear(s.fill[:cap(s.fill)])
	clear(s.head[:cap(s.head)])
	clear(s.order[:cap(s.order)])
	clear(s.dirty[:cap(s.dirty)])
	s.Reset()
}

// Rebind re-targets the simulator to another configuration and
// replacement policy and resets it, keeping its arenas: they are
// capacity, so any configuration whose ways and sets fit them (and, for
// LRU, whose ways fit the recency arena an LRU simulator owns) replays
// on the same memory. A write-policy simulator keeps its write, alloc
// and store-width settings. Rebind is for whole-trace simulators: it
// resets the fill-traffic cost to cfg.BlockSize, which a sharded
// sub-simulator overrides. It reports an error, leaving the simulator
// untouched, when cfg is invalid or does not fit.
func (s *Simulator) Rebind(cfg cache.Config, policy cache.Policy) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := cfg.Sets * cfg.Assoc
	if cfg.Assoc > 127 || n > cap(s.tags) || cfg.Sets > cap(s.fill) ||
		policy == cache.LRU && n > cap(s.order) || s.dirty != nil && n > cap(s.dirty) {
		return fmt.Errorf("refsim: %v (%v) does not fit arenas of %d ways in %d sets", cfg, policy, cap(s.tags), cap(s.fill))
	}
	s.cfg, s.policy, s.fillBytes = cfg, policy, cfg.BlockSize
	s.tags, s.fill, s.head = s.tags[:n], s.fill[:cfg.Sets], s.head[:cfg.Sets]
	if policy == cache.LRU {
		s.order = s.order[:n]
	}
	if s.dirty != nil {
		s.dirty = s.dirty[:n]
	}
	s.Reset()
	return nil
}

// Config returns the simulated configuration.
func (s *Simulator) Config() cache.Config { return s.cfg }

// Policy returns the replacement policy.
func (s *Simulator) Policy() cache.Policy { return s.policy }

// Stats returns a snapshot of the accumulated statistics.
func (s *Simulator) Stats() Stats { return s.stats }

// Access simulates one memory request and reports whether it hit.
func (s *Simulator) Access(a trace.Access) bool {
	blk := s.cfg.BlockAddr(a.Addr)
	set := int(blk) & (s.cfg.Sets - 1)
	tag := blk >> uint(s.cfg.IndexBits())

	s.stats.Accesses++
	if a.Kind.Valid() {
		s.stats.AccessesByKind[a.Kind]++
	}

	// Stores follow the configured write/alloc policies when the
	// simulator was built with NewSim.
	if s.dirty != nil && a.Kind == trace.DataWrite {
		return s.accessWrite(set, tag, blk)
	}

	// Search every valid way, counting tag comparisons. For LRU the
	// search follows recency order (Dinero searches its recency-linked
	// list), for FIFO/Random physical order; the comparison count to a
	// hit differs accordingly.
	hitWay := s.findWay(set, tag)
	if hitWay >= 0 {
		if s.policy == cache.LRU {
			s.touchLRU(set, hitWay)
		}
		return true
	}

	// Miss path.
	s.stats.Misses++
	if a.Kind.Valid() {
		s.stats.MissesByKind[a.Kind]++
	}
	if s.seen.add(blk) {
		s.stats.CompulsoryMisses++
	}
	s.install(set, tag)
	return false
}

// touchLRU moves way w of the set to most-recently-used position.
func (s *Simulator) touchLRU(set, w int) {
	base := set * s.cfg.Assoc
	// Find w in the recency order and rotate it to the front.
	for i := 0; i < int(s.fill[set]); i++ {
		if int(s.order[base+i]) == w {
			copy(s.order[base+1:base+i+1], s.order[base:base+i])
			s.order[base] = int8(w)
			return
		}
	}
}

// install places tag into the set — the next free way while the set
// fills, else the policy's victim — and returns the way used. A
// write-policy simulator (built with NewSim) also charges the fill's
// memory traffic and writes a dirty victim back.
func (s *Simulator) install(set int, tag uint64) int {
	assoc := s.cfg.Assoc
	base := set * assoc
	w := int(s.fill[set])
	if w < assoc {
		// Cold fill. FIFO's head keeps pointing at way 0, the oldest.
		s.fill[set]++
		if s.policy == cache.LRU {
			copy(s.order[base+1:base+w+1], s.order[base:base+w])
			s.order[base] = int8(w)
		}
	} else {
		switch s.policy {
		case cache.FIFO:
			w = int(s.head[set])
			s.head[set] = int32((w + 1) & (assoc - 1))
		case cache.LRU:
			w = int(s.order[base+assoc-1])
			copy(s.order[base+1:base+assoc], s.order[base:base+assoc-1])
			s.order[base] = int8(w)
		case cache.Random:
			// xorshift64 step, deterministic across runs.
			s.rnd ^= s.rnd << 13
			s.rnd ^= s.rnd >> 7
			s.rnd ^= s.rnd << 17
			w = int(s.rnd & uint64(assoc-1))
		}
		s.stats.Evictions++
	}
	if s.dirty != nil {
		// A cold way is never dirty, so only a victim writes back.
		s.traffic.BytesFromMemory += uint64(s.fillBytes)
		if s.dirty[base+w] {
			s.traffic.BytesToMemory += uint64(s.fillBytes)
			s.traffic.Writebacks++
			s.dirty[base+w] = false
		}
	}
	s.tags[base+w] = tag
	return w
}

// Simulate drains the reader through the simulator and returns the final
// statistics. Reads are batched (trace.BatchReader), so a pass over an
// in-memory trace or a trace file pays one reader call per
// trace.DefaultBatchSize accesses; the per-access statistics are
// unchanged.
func (s *Simulator) Simulate(r trace.Reader) (Stats, error) {
	err := trace.Drain(r, func(batch []trace.Access) {
		for _, a := range batch {
			s.Access(a)
		}
	})
	return s.stats, err
}

// Run is a convenience that builds a Simulator and drains the reader.
func Run(cfg cache.Config, policy cache.Policy, r trace.Reader) (Stats, error) {
	s, err := New(cfg, policy)
	if err != nil {
		return Stats{}, err
	}
	return s.Simulate(r)
}

// RunTrace runs an in-memory trace (common in tests and benchmarks).
func RunTrace(cfg cache.Config, policy cache.Policy, t trace.Trace) (Stats, error) {
	return Run(cfg, policy, t.NewSliceReader())
}
