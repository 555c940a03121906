// Package stackdist is a test-only oracle: the classic stack (Mattson)
// algorithm for LRU caches, which checks the lrutree simulator's LRU
// counts independently of the reference simulator
// (TestLRUMatchesStackDistance). The algorithm is the foundation of the
// "all-associativity" simulation lineage the DEW paper builds on
// (Gecsei, Slutz and Traiger, reference [9]; Hill and Smith's
// forest/all-associativity simulation, reference [11]; Sugumar's
// generalized binomial trees, reference [19]).
//
// For a fixed set count and block size, one pass over the trace yields
// the LRU stack-distance histogram of every set. Because LRU obeys the
// stack property, the miss count of EVERY associativity A follows from
// the histogram: an access with stack distance d hits iff d < A, so
//
//	misses(A) = Σ_{d >= A} hist[d] + coldMisses.
//
// This gives all associativities from one pass, complementing the tree
// simulators (which give all set counts from one pass at a fixed
// associativity). It only works for stack policies — FIFO is not one,
// which is precisely why the paper needed DEW.
package stackdist

import (
	"errors"
	"fmt"
	"io"
	"math/bits"

	"dew/internal/cache"
	"dew/internal/trace"
)

// Simulator accumulates per-set LRU stack distances for one (set count,
// block size) pair.
type Simulator struct {
	sets      int
	blockSize int
	offBits   uint
	maxTrack  int

	// stacks[s] is set s's LRU stack, most recent first.
	stacks [][]uint64
	// hist[d] counts accesses with stack distance d (capped at
	// maxTrack-1; deeper distances land in the overflow bucket).
	hist []uint64
	// overflow counts accesses deeper than the tracked distances.
	overflow uint64
	cold     uint64
	accesses uint64
}

// New builds a Simulator. sets and blockSize must be powers of two;
// maxTrack bounds the tracked stack depth (and therefore the largest
// associativity answerable exactly) — the overflow bucket absorbs deeper
// reuse.
func New(sets, blockSize, maxTrack int) (*Simulator, error) {
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("stackdist: sets must be a positive power of two, got %d", sets)
	}
	if blockSize <= 0 || blockSize&(blockSize-1) != 0 {
		return nil, fmt.Errorf("stackdist: block size must be a positive power of two, got %d", blockSize)
	}
	if maxTrack <= 0 {
		return nil, fmt.Errorf("stackdist: maxTrack must be positive, got %d", maxTrack)
	}
	return &Simulator{
		sets:      sets,
		blockSize: blockSize,
		offBits:   uint(bits.TrailingZeros(uint(blockSize))),
		maxTrack:  maxTrack,
		stacks:    make([][]uint64, sets),
		hist:      make([]uint64, maxTrack),
	}, nil
}

// Access records one request and returns its stack distance (-1 for a
// cold first reference).
func (s *Simulator) Access(a trace.Access) int {
	blk := a.Addr >> s.offBits
	set := int(blk) & (s.sets - 1)
	s.accesses++

	stack := s.stacks[set]
	for d, tag := range stack {
		if tag == blk {
			// Distance d: rotate to MRU.
			copy(stack[1:d+1], stack[:d])
			stack[0] = blk
			if d < s.maxTrack {
				s.hist[d]++
			} else {
				s.overflow++
			}
			return d
		}
	}
	// Cold reference: push. Stacks are unbounded so cold-miss
	// classification stays exact; deep re-references land in the
	// overflow bucket via the distance cap instead. (Searches are
	// O(stack depth) — the price of the stack algorithm, and one reason
	// the binomial-tree methods superseded it for set-count sweeps.)
	s.cold++
	stack = append(stack, 0)
	copy(stack[1:], stack[:len(stack)-1])
	stack[0] = blk
	s.stacks[set] = stack
	return -1
}

// Simulate drains the reader.
func (s *Simulator) Simulate(r trace.Reader) error {
	for {
		a, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		s.Access(a)
	}
}

// Accesses returns the number of requests processed.
func (s *Simulator) Accesses() uint64 { return s.accesses }

// ColdMisses returns the number of first references (compulsory misses
// for every associativity).
func (s *Simulator) ColdMisses() uint64 { return s.cold }

// MissesFor returns the exact LRU miss count for associativity assoc at
// this simulator's set count and block size. assoc must not exceed the
// tracked depth.
func (s *Simulator) MissesFor(assoc int) (uint64, error) {
	if assoc <= 0 {
		return 0, fmt.Errorf("stackdist: associativity must be positive, got %d", assoc)
	}
	if assoc > s.maxTrack {
		return 0, fmt.Errorf("stackdist: associativity %d exceeds tracked depth %d", assoc, s.maxTrack)
	}
	misses := s.cold + s.overflow
	for d := assoc; d < s.maxTrack; d++ {
		misses += s.hist[d]
	}
	return misses, nil
}

// Results materializes Stats for every power-of-two associativity up to
// the tracked depth, mirroring the Result layout of the tree simulators.
func (s *Simulator) Results() []Result {
	var out []Result
	for a := 1; a <= s.maxTrack; a *= 2 {
		m, err := s.MissesFor(a)
		if err != nil {
			break
		}
		out = append(out, Result{
			Config: cache.Config{Sets: s.sets, Assoc: a, BlockSize: s.blockSize},
			Stats:  cache.Stats{Accesses: s.accesses, Misses: m},
		})
	}
	return out
}

// Result pairs a configuration with its outcome.
type Result struct {
	Config cache.Config
	cache.Stats
}

// Run builds a Simulator and drains the reader.
func Run(sets, blockSize, maxTrack int, r trace.Reader) (*Simulator, error) {
	s, err := New(sets, blockSize, maxTrack)
	if err != nil {
		return nil, err
	}
	if err := s.Simulate(r); err != nil {
		return nil, err
	}
	return s, nil
}
