package refsim

import (
	"fmt"

	"dew/internal/cache"
	"dew/internal/trace"
)

// Dinero IV models write handling as two orthogonal choices; this file
// adds the same axes plus the memory-traffic statistics Dinero reports
// ("bytes from memory", "bytes to memory"). Replacement-policy behaviour
// and hit/miss accounting for reads and instruction fetches are
// unaffected; only stores interact with these options.

// WritePolicy selects how write hits propagate to the next level.
type WritePolicy uint8

const (
	// WriteBack marks the block dirty and writes it to memory only on
	// eviction.
	WriteBack WritePolicy = iota
	// WriteThrough sends every store to memory immediately; blocks are
	// never dirty.
	WriteThrough
)

// String returns the conventional name.
func (w WritePolicy) String() string {
	switch w {
	case WriteBack:
		return "write-back"
	case WriteThrough:
		return "write-through"
	default:
		return fmt.Sprintf("WritePolicy(%d)", uint8(w))
	}
}

// AllocPolicy selects what a write miss does.
type AllocPolicy uint8

const (
	// WriteAllocate fetches the block on a write miss and installs it
	// (the behaviour the multi-configuration simulators model for every
	// access kind).
	WriteAllocate AllocPolicy = iota
	// NoWriteAllocate sends the store to memory without installing the
	// block; write misses do not disturb the cache.
	NoWriteAllocate
)

// String returns the conventional name.
func (a AllocPolicy) String() string {
	switch a {
	case WriteAllocate:
		return "write-allocate"
	case NoWriteAllocate:
		return "no-write-allocate"
	default:
		return fmt.Sprintf("AllocPolicy(%d)", uint8(a))
	}
}

// Options fully parameterizes a reference simulation.
type Options struct {
	// Config is the cache geometry.
	Config cache.Config
	// Replacement is the replacement policy (FIFO, LRU, Random).
	Replacement cache.Policy
	// Write selects write-back (default) or write-through.
	Write WritePolicy
	// Alloc selects write-allocate (default) or no-write-allocate.
	Alloc AllocPolicy
	// StoreBytes is the store width used for write-through /
	// no-write-allocate traffic accounting; 0 defaults to 4.
	StoreBytes int
}

// Traffic is the memory-side byte accounting of a simulation.
type Traffic struct {
	// BytesFromMemory counts block fills (misses that install a block).
	BytesFromMemory uint64
	// BytesToMemory counts write-through stores, no-write-allocate
	// stores and write-back evictions.
	BytesToMemory uint64
	// Writebacks counts dirty evictions.
	Writebacks uint64
}

// NewSim builds a fully-parameterized Simulator.
func NewSim(o Options) (*Simulator, error) {
	s, err := New(o.Config, o.Replacement)
	if err != nil {
		return nil, err
	}
	if o.StoreBytes < 0 {
		return nil, fmt.Errorf("refsim: negative store width %d", o.StoreBytes)
	}
	s.write = o.Write
	s.alloc = o.Alloc
	s.storeBytes = o.StoreBytes
	if s.storeBytes == 0 {
		s.storeBytes = 4
	}
	s.dirty = make([]bool, o.Config.Sets*o.Config.Assoc)
	return s, nil
}

// NewShardSim builds one sub-cache of a set-sharded write-policy pass
// (the engine package's sharded pass): o holds the sub-cache's widened
// configuration, 2^S times fewer sets at a 2^S times larger block size.
// The widened block is an addressing trick rather than a longer line,
// so fills and writebacks are charged at the parent block size
// blockBytes. Dirty bits live per way of one set and each block's first
// reference falls in exactly one sub-cache, so the sub-caches' records
// sum to the parent's.
func NewShardSim(o Options, blockBytes int) (*Simulator, error) {
	s, err := NewSim(o)
	if err != nil {
		return nil, err
	}
	s.fillBytes = blockBytes
	return s, nil
}

// Traffic returns the memory-traffic counters. It is zero unless the
// simulator was built with NewSim (New keeps the legacy
// allocate-everything behaviour with no traffic accounting).
func (s *Simulator) Traffic() Traffic { return s.traffic }

// accessWrite handles a store under the configured write/alloc policies.
// It returns whether the access hit. Called from Access for simulators
// built with NewSim.
func (s *Simulator) accessWrite(set int, tag uint64, blk uint64) bool {
	base := set * s.cfg.Assoc
	hitWay := s.findWay(set, tag)
	if hitWay >= 0 {
		if s.policy == cache.LRU {
			s.touchLRU(set, hitWay)
		}
		if s.write == WriteBack {
			s.dirty[base+hitWay] = true
		} else {
			s.traffic.BytesToMemory += uint64(s.storeBytes)
		}
		return true
	}

	// Write miss.
	s.stats.Misses++
	s.stats.MissesByKind[trace.DataWrite]++
	if s.seen.add(blk) {
		s.stats.CompulsoryMisses++
	}
	if s.alloc == NoWriteAllocate {
		// The store bypasses the cache entirely.
		s.traffic.BytesToMemory += uint64(s.storeBytes)
		return false
	}
	// Allocate: fetch the block, install it, then apply the store.
	w := s.install(set, tag)
	if s.write == WriteBack {
		s.dirty[base+w] = true
	} else {
		s.traffic.BytesToMemory += uint64(s.storeBytes)
	}
	return false
}

// findWay searches the set for the tag, counting comparisons exactly as
// the read path does, and returns the way index or -1. LRU searches in
// recency order (Dinero searches its recency-linked list), FIFO and
// Random in physical order; a hit at search position i costs i+1
// comparisons and a miss one per valid way.
func (s *Simulator) findWay(set int, tag uint64) int {
	base := set * s.cfg.Assoc
	n := int(s.fill[set])
	if s.policy == cache.LRU {
		for i, w := range s.order[base : base+n] {
			if s.tags[base+int(w)] == tag {
				s.stats.TagComparisons += uint64(i + 1)
				return int(w)
			}
		}
	} else {
		for w, t := range s.tags[base : base+n] {
			if t == tag {
				s.stats.TagComparisons += uint64(w + 1)
				return w
			}
		}
	}
	s.stats.TagComparisons += uint64(n)
	return -1
}
