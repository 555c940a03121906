// Package core implements DEW ("Direct Explorer Wave"), the paper's
// contribution: exact single-pass simulation of every power-of-two set
// count for a fixed (associativity, block size) pair under the FIFO
// replacement policy.
//
// # Simulation tree
//
// For set counts 2^minLog .. 2^maxLog, level L of the binomial simulation
// tree holds the 2^L sets of the configuration with 2^L sets (Figure 1 of
// the paper). A block address b maps to node (L, b mod 2^L); the parent
// of node (L+1, i) is (L, i mod 2^L), and an access therefore evaluates
// at most one node per level — Property 1. When minLog > 0 the structure
// is a forest of 2^minLog trees, handled uniformly by the same indexing.
//
// # Node structure
//
// Each node is an A-way FIFO set: a tag list with one wave pointer per
// entry, the MRA (most recently accessed) tag, and the MRE (most recently
// evicted) tag with its wave pointer (Figure 4). A wave pointer stores
// the way position the same tag occupied in the node's child the last
// time the tag was processed there; "empty" (-1) means the position in
// the child is unknown.
//
// # The four properties
//
//   - P2 (MRA): if the requested tag equals a node's MRA tag, no other
//     access has touched this set since the tag's last access — and since
//     every access to a descendant set also passes through this set, no
//     descendant set was touched either. The tag is therefore still
//     resident in this node and in every descendant, the access is a hit
//     at this and all larger set counts, and — FIFO never reorders on a
//     hit — no state needs updating: the walk stops. The MRA tag is also
//     exactly the content of the direct-mapped (associativity 1)
//     configuration at this level, which is how one DEW pass simulates
//     associativity 1 alongside associativity A for free.
//   - P3 (wave): a tag's physical way position in a FIFO set can change
//     only while that same tag is being accessed (insertion or MRE
//     resurrection), and every access to the tag refreshes the parent's
//     wave pointer. Consequently a non-empty parent wave pointer w
//     decides membership with a single comparison: child.way[w] holds the
//     tag (hit at way w) or the tag is not in the child at all (miss).
//   - P4 (MRE): if the requested tag equals the node's MRE tag, the tag
//     was the last one evicted and cannot be resident — a miss with no
//     search. On the re-insert the MRE entry's saved wave pointer is
//     swapped back into the tag list (Algorithm 2 line 5), keeping the
//     wave chain intact for the descent.
//
// Only when none of the properties decide is the tag list scanned.
//
// Exactness does not depend on P2/P3/P4 being enabled — they only avoid
// work — so Options provides per-property ablation switches used by the
// ablation benchmarks.
//
// # Instrumented and fast paths
//
// The simulator exposes two equivalent evaluation paths. Access (and
// Simulate, which batches its reads but still calls Access per request)
// is the instrumented path: it maintains the full Counters set that
// Tables 3 and 4 report. AccessRuns (and SimulateStream, its
// materialized-stream wrapper) is the counter-free fast path: the same
// node walk over run-compressed block IDs with the per-access counter
// increments compiled out and the hot per-level slices (tags, wave,
// fill, mra) hoisted into local slice headers, counting only
// Counters.Accesses. The two paths are bit-identical in Results —
// stream_test.go and FuzzStreamEquivalence enforce it — and every sweep
// cell replays the fast path and cross-checks it against the
// instrumented pass. Setting Options.Instrument (or any ablation switch,
// whose whole point is moving counters) routes the stream entry points
// back through the counted path.
//
// # Memory layout
//
// Per-node state is split by reader. The 16-byte nodeState record —
// MRA tag, FIFO cursor, fill count, LRU endpoints — is what every walk
// reads at every level, four records to a cache line. The MRE record
// (tag plus saved wave pointer) lives in a side arena that only the
// per-access walks (Access, and accessFast under LRU) read; they
// allocate it on first use, together with the wave-pointer arena, so a
// FIFO pass that only streams never holds either. Per-way state is the
// tag arena, the wave pointers and, for passes of 8 or more ways, a
// fingerprint arena of one hash byte per way: every walk writes a way's
// fingerprint with its tag, and the
// columnar FIFO walk matches a node's fingerprints eight ways per
// 64-bit word (a SWAR byte match, as in SwissTable-style hash tables'
// control-byte groups) so that it reads only candidate tags. The
// instrumented path never reads the fingerprints, which keeps the
// Table 4 comparison counters defined as the paper defines them.
//
// # Sharded parallel passes
//
// A third, parallel execution form of the same pass lives in Sharded:
// the levels at and below a shard level S decompose into 2^S trees that
// never share a node (the node index taken mod 2^S equals the block
// address mod 2^S at every level ≥ S), so each tree can replay its own
// substream of a trace.ShardStream on its own goroutine while a
// shallow pass covers the levels above S; the stitched per-level miss
// tables are bit-identical to the monolithic pass — shard_test.go and
// FuzzShardedEquivalence enforce it, and sweep cells running with
// Shards cross-check it against the instrumented pass at runtime.
//
// # LRU cost
//
// Under cache.LRU FIFO's round-robin cursor does not apply, and keeping
// ways position-stable (which the wave pointers require) rules out the
// sorted recency list a dedicated LRU simulator would use. Earlier
// versions paid an O(A) victim scan over per-way recency stamps on
// every warm miss. (Tracking the min-stamp way incrementally cannot
// remove that scan: every warm miss inserts at the min way, which
// forces an O(A) recompute of the minimum — the scan just moves.) The
// simulator instead threads an exact recency order through the
// position-stable ways as a per-node doubly-linked list (older/newer
// way indices plus the node's MRU/LRU endpoints): a hit unlinks and
// relinks one way in O(1), and a warm miss reads the victim straight
// from the node's LRU endpoint in O(1). Ways still never move, so the
// wave pointers stay sound, and the list order equals the stamp order
// (stamps were unique), so victim choice — and every result — is
// bit-identical to the scanning implementation. The remaining LRU
// overhead versus FIFO is the constant link maintenance per access,
// not an O(A) term.
package core

import (
	"fmt"
	"math/bits"

	"dew/internal/cache"
	"dew/internal/trace"
)

// Options configures one DEW pass. A pass covers set counts 2^MinLogSets
// through 2^MaxLogSets for one associativity and one block size, i.e. the
// configurations {(2^L, Assoc, BlockSize)} plus — for free — the
// direct-mapped configurations {(2^L, 1, BlockSize)}.
type Options struct {
	// MinLogSets and MaxLogSets bound the simulated set counts
	// (inclusive, as log2). The paper uses 0..14.
	MinLogSets, MaxLogSets int
	// Assoc is the tag-list associativity A (power of two, 1..64).
	Assoc int
	// BlockSize is the cache block size in bytes (power of two).
	BlockSize int

	// Policy selects the replacement policy. DEW is designed and
	// optimized for cache.FIFO (the default). cache.LRU is supported —
	// the paper's Section 2.1 notes DEW "can simulate caches with the
	// LRU replacement policy, but will typically be slower than
	// Janapsatya's method" — by keeping tags in position-stable ways
	// (recency lives in per-node linked recency order, so hits never
	// move entries and the wave pointers stay sound) with O(1) victim
	// selection (see the package comment). Other policies are rejected.
	Policy cache.Policy

	// DisableMRA, DisableWave and DisableMRE switch off properties 2, 3
	// and 4 respectively for ablation studies. Results are identical
	// either way; only the work counters change.
	DisableMRA  bool
	DisableWave bool
	DisableMRE  bool

	// Instrument forces the stream entry points (AccessRuns,
	// SimulateStream) onto the instrumented path, maintaining the full
	// Counters set exactly as Access does (they fold run weights into
	// the level-0 MRA counters arithmetically; see AccessRuns). When
	// false (the default) and no property is disabled, they take the
	// counter-free fast path: identical Results, but only
	// Counters.Accesses is maintained. Access and Simulate are always
	// instrumented — they are the Table 3/4 measurement path.
	Instrument bool
}

// instrumented reports whether the fast entry points must route
// through the fully counted per-access path: explicitly requested, or
// required because an ablation switch changes which counters move.
func (o Options) instrumented() bool {
	return o.Instrument || o.DisableMRA || o.DisableWave || o.DisableMRE
}

// Validate reports whether the options describe a simulatable pass.
func (o Options) Validate() error {
	if o.MinLogSets < 0 || o.MaxLogSets < o.MinLogSets {
		return fmt.Errorf("core: invalid set-count range [2^%d, 2^%d]", o.MinLogSets, o.MaxLogSets)
	}
	if o.MaxLogSets > 22 {
		return fmt.Errorf("core: max log2 set count %d exceeds supported 22", o.MaxLogSets)
	}
	if o.Assoc < 1 || o.Assoc > 64 || o.Assoc&(o.Assoc-1) != 0 {
		return fmt.Errorf("core: associativity must be a power of two in [1, 64], got %d", o.Assoc)
	}
	if o.BlockSize < 1 || o.BlockSize&(o.BlockSize-1) != 0 {
		return fmt.Errorf("core: block size must be a positive power of two, got %d", o.BlockSize)
	}
	if o.Policy != cache.FIFO && o.Policy != cache.LRU {
		return fmt.Errorf("core: unsupported replacement policy %v (FIFO and LRU only)", o.Policy)
	}
	return nil
}

// Levels returns the number of tree levels the pass simulates.
func (o Options) Levels() int { return o.MaxLogSets - o.MinLogSets + 1 }

// nodeState packs the per-node metadata every walk reads into one
// 16-byte record: the MRA tag the direct-mapped check reads on every
// visit plus the small bookkeeping fields. Keeping them in one record
// instead of parallel arrays means the per-level work of the hot walk —
// which usually ends at the MRA comparison — touches one cache line, and
// the 16-byte stride puts exactly four records on every line, so no
// record ever straddles one. The two LRU recency-list endpoints occupy
// what would otherwise be padding, so LRU passes add no record growth.
// The MRE record (Property 4) lives in a side arena (mreState), because
// the columnar FIFO walk, which runs the bulk of every design-space
// sweep, never reads it.
type nodeState struct {
	mra    uint64 // most recently accessed tag (= the DM configuration's content)
	head   int8   // FIFO round-robin victim cursor
	fill   int8   // number of valid ways
	mruWay int8   // most recently used way (LRU passes; valid when fill > 0)
	lruWay int8   // least recently used way = O(1) victim (LRU passes; valid when fill > 0)
}

// mreState is one node's Property 4 record: the most recently evicted
// tag and the wave pointer saved with it. Only the per-access walks
// (Access, accessFast) read or write it, so it lives in a side arena
// indexed like the node records and allocated on their first use (see
// Simulator.mres).
type mreState struct {
	tag  uint64 // most recently evicted tag
	ok   bool   // tag holds a real tag
	wave int8   // wave pointer saved with the MRE tag
}

// mraValid reports whether the node's MRA entry holds a real tag. Every
// walk through a node hits or inserts (fill > 0) and sets mra, and a
// Property 2 exit at the node requires an earlier walk through it, so
// "ever touched" — fill > 0 — is exactly "mra is real"; the flag needs
// no storage or per-level store of its own.
func (n *nodeState) mraValid() bool { return n.fill > 0 }

// level holds the flattened node arrays for one tree level (one set
// count). Node i of a level with 2^log sets owns entries
// [i*assoc, (i+1)*assoc) of the per-way slices and record i of node.
type level struct {
	mask uint64 // 2^log - 1
	// nodeOff and wayOff locate the level's node records and way entries
	// in the arenas; the columnar FIFO walk indexes the arenas with them
	// directly.
	nodeOff, wayOff int

	// Per-way state.
	tags []uint64 // stored block addresses
	wave []int8   // way position of the same tag in the child; -1 empty (nil until allocated)
	// older and newer (LRU passes only) thread the node's exact recency
	// order through its position-stable ways as a doubly-linked list:
	// older[w]/newer[w] are way indices one step toward the LRU/MRU
	// endpoint (-1 at the ends). Ways never move on hits, so wave
	// pointers remain sound under LRU; the victim is the node's lruWay
	// endpoint, read in O(1).
	older []int8
	newer []int8
	fps   []uint8 // fingerprint of each way's tag (Assoc >= 8 only)

	// Per-node state.
	node []nodeState
	mre  []mreState // nil until the MRE side arena is allocated
}

// Simulator is one DEW pass in progress. Create with New, feed with
// Access or Simulate, then read Results and Counters.
//
// All per-way and per-node state lives in level-major arenas (nodes,
// tags, the fingerprints of Assoc >= 8 passes, the wave pointers and
// MRE side arena once a per-access walk has run, and — for LRU passes —
// the older/newer recency links); each level's slices are views into
// them.
// The instrumented path walks the per-level views, the fast path walks
// the arenas directly with incrementally computed masks and offsets —
// same memory, same results.
type Simulator struct {
	opt     Options
	offBits uint
	assoc   int
	isLRU   bool
	levels  []level

	// Arenas backing every level's slices, concatenated in level order.
	// The per-way arenas are cut to the pass's width; their capacity is
	// the width the simulator was built for (see Rebind).
	nodes []nodeState
	tags  []uint64
	older []int8 // LRU passes only
	newer []int8 // LRU passes only

	// fps is the fingerprint view of passes with Assoc >= 8 (nil
	// otherwise — the walks test fps != nil): fps[i] is
	// fingerprint(tags[i]), one byte per way, written at every tag write
	// of every walk. The columnar FIFO walk matches a node's
	// fingerprints eight ways per 64-bit word and reads the full tags
	// only of the candidate ways (see matchFingerprint). Like the tags,
	// bytes beyond a node's fill are stale and never read. fpsArena backs
	// it and outlives a rebind to fewer than 8 ways.
	fps      []uint8
	fpsArena []uint8

	// wave (one wave pointer per way plus a scratch slot) and mres (the
	// MRE side arena, one record per node in node-arena order) serve
	// only the per-access walks. The first Access or accessFast walk
	// allocates both (mreArena), so a pass that only runs the columnar
	// FIFO walk never holds them. mreDirty reports whether any MRE
	// record may be set; while it is false the arena (if any) is all
	// "no MRE", so Reset and settleWave skip it.
	wave     []int8
	mres     []mreState
	mreDirty bool

	// missDM and missA hold each level's miss counts for the
	// associativity-1 and associativity-A configurations. They live in
	// two dense arrays — the hottest writes of the walk — so every level
	// updates the same couple of cache lines.
	missDM []uint64
	missA  []uint64

	// exitHist is the fast path's pending exit-depth histogram:
	// exitHist[d] counts accesses whose walk ended with the MRA hit at
	// level d (or d == Levels() for walks that ran through every level).
	// A walk increments missDM at exactly the levels before its exit, so
	// missDM[l] ≡ Σ_{d>l} exitHist[d]; the fast path pays one histogram
	// increment per access instead of one missDM increment per level,
	// and foldExitHist folds the suffix sums back into missDM after each
	// stream chunk (so missDM is current whenever AccessRuns is not
	// running).
	exitHist []uint64

	// lastBlk memoizes the most recently simulated block address for the
	// fast path: a repeated block is by construction a level-0 MRA hit,
	// which mutates nothing, so the walk can be skipped outright.
	lastBlk uint64
	lastOK  bool

	// pfSink absorbs the stream walk's prefetch touches so the compiler
	// cannot discard them; never read.
	pfSink uint64

	// waveStale marks the wave pointers and MRE records as left stale by
	// the columnar FIFO walk (FIFO passes only); the entry points that
	// read them apply the pending reset first (see settleWave).
	waveStale bool

	counters Counters
}

// New builds a Simulator for the given options.
func New(opt Options) (*Simulator, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		opt:     opt,
		offBits: uint(bits.TrailingZeros(uint(opt.BlockSize))),
		assoc:   opt.Assoc,
		isLRU:   opt.Policy == cache.LRU,
		levels:  make([]level, opt.Levels()),
	}
	totalNodes := 0
	for i := range s.levels {
		totalNodes += 1 << (opt.MinLogSets + i)
	}
	totalWays := totalNodes * opt.Assoc
	s.nodes = make([]nodeState, totalNodes)
	s.tags = make([]uint64, totalWays)
	if opt.Assoc >= 8 {
		s.fpsArena = make([]uint8, totalWays)
	}
	s.missDM = make([]uint64, opt.Levels())
	s.missA = make([]uint64, opt.Levels())
	s.exitHist = make([]uint64, opt.Levels()+1)
	if s.isLRU {
		s.older = make([]int8, totalWays)
		s.newer = make([]int8, totalWays)
	}
	s.layout()
	return s, nil
}

// layout cuts the per-way arenas to the pass's width and points every
// level's slices into them. The arenas are capacity: a rebound pass may
// use fewer ways per node than they hold (see Rebind).
func (s *Simulator) layout() {
	ways := len(s.nodes) * s.assoc
	s.tags = s.tags[:ways]
	if s.isLRU {
		s.older, s.newer = s.older[:ways], s.newer[:ways]
	}
	s.fps = nil
	if s.assoc >= 8 {
		if cap(s.fpsArena) < ways {
			s.fpsArena = make([]uint8, ways)
		}
		s.fps = s.fpsArena[:ways]
	}
	if s.wave != nil {
		s.wave = s.wave[:ways+1]
	}
	nodeOff, wayOff := 0, 0
	for i := range s.levels {
		nodes := 1 << (s.opt.MinLogSets + i)
		ways := nodes * s.assoc
		lv := &s.levels[i]
		*lv = level{mask: uint64(nodes - 1), nodeOff: nodeOff, wayOff: wayOff}
		lv.node = s.nodes[nodeOff : nodeOff+nodes : nodeOff+nodes]
		lv.tags = s.tags[wayOff : wayOff+ways : wayOff+ways]
		if s.isLRU {
			lv.older = s.older[wayOff : wayOff+ways : wayOff+ways]
			lv.newer = s.newer[wayOff : wayOff+ways : wayOff+ways]
		}
		if s.fps != nil {
			lv.fps = s.fps[wayOff : wayOff+ways : wayOff+ways]
		}
		if s.wave != nil {
			lv.wave = s.wave[wayOff : wayOff+ways : wayOff+ways]
		}
		if s.mres != nil {
			lv.mre = s.mres[nodeOff : nodeOff+nodes : nodeOff+nodes]
		}
		nodeOff += nodes
		wayOff += ways
	}
}

// Reset returns the simulator to its freshly constructed state while
// keeping every arena allocation, so repeated passes — benchmark
// iterations, sweep cells, per-shard tree replays — run with zero
// steady-state allocations. Only the node records, the MRE side arena
// (when a walk used it) and the result/counter arrays are cleared: the
// per-way arenas (tags, fingerprints, wave, recency links) can stay
// stale because every read of a way is gated on the owning node's fill
// count, which Reset zeroes — a stale entry is unreachable until an
// insertion rewrites it, exactly as an uninitialized entry is after New.
// The same gate makes a pending lazy wave reset moot: clearing the MRE
// records drops every saved wave pointer, and every wave read is gated
// on fill, so Reset also discards the pending settle sweep.
func (s *Simulator) Reset() {
	clear(s.nodes)
	s.clearMRE()
	clear(s.missDM)
	clear(s.missA)
	clear(s.exitHist)
	s.counters = Counters{}
	s.lastBlk, s.lastOK = 0, false
	s.waveStale = false
}

// Prefault writes the stream pass's arenas once over their whole
// capacity — node records, tags, fingerprints and recency links — and
// resets the simulator, so the pages behind freshly allocated arenas
// are mapped now rather than inside the first pass that touches them.
// Stale ways are unreachable (see Reset), so zeroing them is safe
// between passes.
func (s *Simulator) Prefault() {
	clear(s.tags[:cap(s.tags)])
	clear(s.fpsArena[:cap(s.fpsArena)])
	clear(s.older[:cap(s.older)])
	clear(s.newer[:cap(s.newer)])
	s.Reset()
}

// mreArena allocates the per-access walks' side arenas on first use —
// the MRE records and the wave pointers — and marks the MRE records
// dirty: the caller is a per-access walk, which may record an eviction.
// A new wave arena reads "unknown" (-1) everywhere, which is always
// sound even when a columnar walk has already filled nodes; it gets one
// extra scratch entry at the end: the fast path's level-0 iteration
// "refreshes its parent's wave pointer" into it unconditionally, which
// removes a has-parent branch from every level of the walk. The slot is
// never read. The wave arena is sized to the tag arena's capacity, so a
// rebound pass of any width that fits the tags fits it too.
func (s *Simulator) mreArena() {
	if s.wave == nil {
		s.mres = make([]mreState, len(s.nodes))
		wave := make([]int8, cap(s.tags)+1)
		for i := range wave {
			wave[i] = -1
		}
		s.wave = wave[:len(s.tags)+1]
		s.layout()
	}
	s.mreDirty = true
}

// clearMRE resets every MRE record to "no MRE" if any walk may have set
// one since the last clear.
func (s *Simulator) clearMRE() {
	if s.mreDirty {
		clear(s.mres)
		s.mreDirty = false
	}
}

// fingerprint is the one-byte summary of a block ID kept per way in the
// fingerprint arena: the top byte of a multiplicative (Fibonacci) hash,
// which depends on every bit of the ID — the node's own low bits are
// shared by every tag it holds, so a byte of the ID itself would not do.
func fingerprint(blk uint64) uint8 {
	return uint8((blk * 0x9e3779b97f4a7c15) >> 56)
}

// matchFingerprint returns the candidate mask of one fingerprint word
// (eight ways, way k in byte k) for the fingerprint f: bit 8k+7 is set
// for every way k whose byte equals f. This is the SWAR has-zero-byte
// test on word ^ broadcast(f); it never misses a match, but a borrow out
// of a zero byte can also flag the byte above it (when that byte is
// f ^ 1), so every candidate must be verified against the full tag. The
// lowest flagged byte is always a true match.
func matchFingerprint(word uint64, f uint8) uint64 {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	x := word ^ lo*uint64(f)
	return (x - lo) &^ x & hi
}

// Rebind re-targets the simulator to opt and resets it, keeping every
// arena. The arenas are capacity, not shape: opt must cover the same
// set-count range under the same policy (the node arena and the LRU
// links depend on both), and its ways must fit the tag arena, i.e. Assoc
// may not exceed the associativity the simulator was built for. The
// block size, a smaller associativity, the ablation switches and
// Instrument are free, so a pass on a rebound simulator allocates
// nothing. Stale ways beyond the new width, like every stale way, are
// unreachable: each way read is gated on its node's fill count, which
// the reset zeroes. A rejected opt leaves the simulator untouched.
func (s *Simulator) Rebind(opt Options) error {
	if err := opt.Validate(); err != nil {
		return err
	}
	if opt.MinLogSets != s.opt.MinLogSets || opt.MaxLogSets != s.opt.MaxLogSets || opt.Policy != s.opt.Policy {
		return fmt.Errorf("core: cannot rebind a %v pass over [2^%d, 2^%d] to a %v pass over [2^%d, 2^%d]",
			s.opt.Policy, s.opt.MinLogSets, s.opt.MaxLogSets, opt.Policy, opt.MinLogSets, opt.MaxLogSets)
	}
	if ways := len(s.nodes) * opt.Assoc; ways > cap(s.tags) {
		return fmt.Errorf("core: a %d-way pass needs %d ways, the arenas hold %d", opt.Assoc, ways, cap(s.tags))
	}
	s.opt = opt
	s.offBits = uint(bits.TrailingZeros(uint(opt.BlockSize)))
	s.assoc = opt.Assoc
	s.layout()
	s.Reset()
	return nil
}

// lruTouch moves the linked way n to the MRU end of the node's recency
// list in O(1). older and newer may be either a level's views or the
// arenas, with base the node's way offset in them. Shared by the
// instrumented and fast paths so both make identical updates.
func lruTouch(nd *nodeState, older, newer []int8, base, n int) {
	mru := int(nd.mruWay)
	if mru == n {
		return
	}
	o, nw := older[base+n], newer[base+n]
	if o >= 0 {
		newer[base+int(o)] = nw
	} else {
		nd.lruWay = nw // n was the LRU endpoint
	}
	if nw >= 0 {
		older[base+int(nw)] = o
	}
	older[base+n] = int8(mru)
	newer[base+mru] = int8(n)
	newer[base+n] = -1
	nd.mruWay = int8(n)
}

// lruInsert links the newly filled way n (always the node's previous
// fill count) at the MRU end of the recency list.
func lruInsert(nd *nodeState, older, newer []int8, base, n int) {
	if n == 0 {
		nd.lruWay = 0
		older[base] = -1
	} else {
		mru := int(nd.mruWay)
		older[base+n] = int8(mru)
		newer[base+mru] = int8(n)
	}
	newer[base+n] = -1
	nd.mruWay = int8(n)
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(opt Options) *Simulator {
	s, err := New(opt)
	if err != nil {
		panic(err)
	}
	return s
}

// Options returns the pass configuration.
func (s *Simulator) Options() Options { return s.opt }

// Access simulates one memory request against every configuration of the
// pass. The request kind does not influence FIFO state; it is accepted so
// the simulator is a drop-in trace consumer.
func (s *Simulator) Access(a trace.Access) {
	s.settleWave()
	s.mreArena()
	blk := a.Addr >> s.offBits
	s.counters.Accesses++
	// Keep the fast path's repeated-block memo sound when the two entry
	// points are mixed on one Simulator: after this call, blk is the
	// most recently simulated block, which is exactly the memo's
	// invariant.
	s.lastBlk, s.lastOK = blk, true

	parentWave := int8(-1) // wave pointer read from the parent's matching entry
	parentIdx := -1        // index of the parent's matching entry in its wave slice
	var parentLv *level    // level owning parentIdx

	for li := range s.levels {
		lv := &s.levels[li]
		node := int(blk & lv.mask)
		nd := &lv.node[node]
		base := node * s.assoc
		// One evaluation for the direct-mapped configuration plus one
		// for the A-way configuration (the paper's Table 4 convention).
		s.counters.NodeEvaluations += 2

		// Direct-mapped check, doubling as Property 2.
		s.counters.TagComparisons++
		mraHit := nd.mra == blk && nd.mraValid()
		if mraHit && !s.opt.DisableMRA {
			// P2: hit in this and every deeper configuration, for both
			// associativity 1 and A; FIFO state is unaffected by hits.
			s.counters.MRACount++
			return
		}
		if !mraHit {
			s.missDM[li]++
		}

		// Decide associativity-A membership.
		me := &lv.mre[node]
		hitWay := -1
		decided := false
		resurrect := false
		mreChecked := false
		if !s.opt.DisableWave && parentIdx >= 0 && parentWave >= 0 {
			// P3: one probe decides hit or miss.
			w := int(parentWave)
			s.counters.TagComparisons++
			s.counters.WaveCount++
			if w < int(nd.fill) && lv.tags[base+w] == blk {
				hitWay = w
			}
			decided = true
		}
		if !decided && !s.opt.DisableMRE && me.ok {
			// P4: the most recently evicted tag cannot be resident.
			s.counters.TagComparisons++
			mreChecked = true
			if me.tag == blk {
				s.counters.MRECount++
				decided = true
				resurrect = true
			}
		}
		if !decided {
			// Full tag-list scan. (With DisableMRA this also covers the
			// MRA-matched case: the tag is resident by the P2 invariant,
			// but its way is unknown without a search.)
			s.counters.Searches++
			for w := 0; w < int(nd.fill); w++ {
				s.counters.TagComparisons++
				if lv.tags[base+w] == blk {
					hitWay = w
					break
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
			s.missA[li]++
			if int(nd.fill) < s.assoc {
				// Cold fill: no eviction, wave pointer unknown.
				n = int(nd.fill)
				coldFill = true
				nd.fill++
				lv.tags[base+n] = blk
				lv.wave[base+n] = -1
				if lv.fps != nil {
					lv.fps[base+n] = fingerprint(blk)
				}
			} else {
				if s.isLRU {
					// LRU victim: the recency list's LRU endpoint, O(1).
					n = int(nd.lruWay)
				} else {
					n = int(nd.head)
					nd.head = int8((n + 1) & (s.assoc - 1))
				}
				if !s.opt.DisableMRE && !mreChecked && me.ok {
					// Algorithm 2 line 4 when the miss was decided by P3
					// or a scan: the MRE may still be the requested tag.
					s.counters.TagComparisons++
					resurrect = me.tag == blk
				}
				victimTag := lv.tags[base+n]
				victimWave := lv.wave[base+n]
				if resurrect {
					// Exchange the victim with the MRE entry, restoring
					// the requested tag's saved wave pointer.
					lv.tags[base+n] = blk
					lv.wave[base+n] = me.wave
					me.tag = victimTag
					me.wave = victimWave
				} else {
					lv.tags[base+n] = blk
					lv.wave[base+n] = -1
					if !s.opt.DisableMRE {
						me.tag = victimTag
						me.wave = victimWave
						me.ok = true
					}
				}
				if lv.fps != nil {
					lv.fps[base+n] = fingerprint(blk)
				}
			}
		}

		if s.isLRU {
			// Refresh LRU recency; the way's position never changes, so
			// wave pointers into and out of this entry stay valid.
			if coldFill {
				lruInsert(nd, lv.older, lv.newer, base, n)
			} else {
				lruTouch(nd, lv.older, lv.newer, base, n)
			}
		}

		nd.mra = blk
		if parentIdx >= 0 {
			parentLv.wave[parentIdx] = int8(n)
		}
		parentWave = lv.wave[base+n]
		parentIdx = base + n
		parentLv = lv
	}
}

// Simulate drains the reader through the instrumented per-access path.
// Reads are batched (trace.BatchReader) so the reader is consulted once
// per chunk, but every access still flows through Access and maintains
// the full counter set. For the counter-free fast path use
// SimulateStream or AccessRuns.
func (s *Simulator) Simulate(r trace.Reader) error {
	return trace.Drain(r, func(batch []trace.Access) {
		for _, a := range batch {
			s.Access(a)
		}
	})
}

// Result pairs one configuration with its exact simulation outcome.
type Result struct {
	Config cache.Config
	cache.Stats
}

// Results returns the exact per-configuration statistics of the pass: for
// every level, the associativity-A configuration and (when Assoc > 1) the
// direct-mapped configuration it simulates for free, in ascending set
// count with the direct-mapped entry first.
func (s *Simulator) Results() []Result {
	return buildResults(s.opt, s.counters.Accesses, s.missDM, s.missA)
}

// buildResults assembles the per-configuration Result layout shared by
// the monolithic Simulator and the stitched sharded pass: per level, the
// direct-mapped configuration (when Assoc > 1) followed by the A-way
// configuration, in ascending set count.
func buildResults(opt Options, accesses uint64, missDM, missA []uint64) []Result {
	var out []Result
	for i := 0; i < opt.Levels(); i++ {
		sets := 1 << (opt.MinLogSets + i)
		if opt.Assoc > 1 {
			out = append(out, Result{
				Config: cache.Config{Sets: sets, Assoc: 1, BlockSize: opt.BlockSize},
				Stats:  cache.Stats{Accesses: accesses, Misses: missDM[i]},
			})
		}
		out = append(out, Result{
			Config: cache.Config{Sets: sets, Assoc: opt.Assoc, BlockSize: opt.BlockSize},
			Stats:  cache.Stats{Accesses: accesses, Misses: missA[i]},
		})
	}
	return out
}

// MissesFor returns the exact miss count for one of the pass's
// configurations (assoc must be 1 or the pass associativity, sets a
// simulated level).
func (s *Simulator) MissesFor(sets, assoc int) (uint64, error) {
	return missesFor(s.opt, s.missDM, s.missA, sets, assoc)
}

// missesFor resolves one configuration's miss count from a pass's
// per-level miss tables; shared by the monolithic and sharded passes.
func missesFor(opt Options, missDM, missA []uint64, sets, assoc int) (uint64, error) {
	if assoc != 1 && assoc != opt.Assoc {
		return 0, fmt.Errorf("core: pass simulates associativity 1 and %d, not %d", opt.Assoc, assoc)
	}
	if sets < 1 || sets&(sets-1) != 0 {
		return 0, fmt.Errorf("core: set count %d is not a power of two", sets)
	}
	log := bits.TrailingZeros(uint(sets))
	if log < opt.MinLogSets || log > opt.MaxLogSets {
		return 0, fmt.Errorf("core: set count %d outside simulated range [2^%d, 2^%d]",
			sets, opt.MinLogSets, opt.MaxLogSets)
	}
	li := log - opt.MinLogSets
	if assoc == 1 {
		return missDM[li], nil
	}
	return missA[li], nil
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
