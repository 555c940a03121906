// Package cache defines the cache-configuration model shared by every
// simulator in this repository: the (sets, associativity, block size)
// parameterization of Section 3 of the DEW paper, address-to-set mapping,
// replacement-policy identifiers, and the enumeration of the paper's
// 525-configuration design space (Table 1).
//
// A cache configuration is parameterized by the cache set size S (number
// of sets), associativity A (ways per set) and block size B in bytes, so
// the total capacity is T = S × A × B. All three parameters are powers of
// two, matching both the paper and real indexing hardware.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes a single level-1 cache configuration.
//
// The zero value is not valid; use Validate (or NewConfig) before
// simulating. All fields must be powers of two.
type Config struct {
	// Sets is the number of cache sets (the paper's S).
	Sets int
	// Assoc is the number of ways per set (the paper's A). Assoc 1 is a
	// direct-mapped cache.
	Assoc int
	// BlockSize is the cache block (line) size in bytes (the paper's B).
	// BlockSize 1 models the paper's byte-addressable lower bound.
	BlockSize int
}

// NewConfig returns a validated configuration.
func NewConfig(sets, assoc, blockSize int) (Config, error) {
	c := Config{Sets: sets, Assoc: assoc, BlockSize: blockSize}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Validate reports whether the configuration is simulatable: every
// parameter positive and a power of two.
func (c Config) Validate() error {
	switch {
	case !isPow2(c.Sets):
		return fmt.Errorf("cache: sets must be a positive power of two, got %d", c.Sets)
	case !isPow2(c.Assoc):
		return fmt.Errorf("cache: associativity must be a positive power of two, got %d", c.Assoc)
	case !isPow2(c.BlockSize):
		return fmt.Errorf("cache: block size must be a positive power of two, got %d", c.BlockSize)
	}
	return nil
}

// SizeBytes returns the total capacity T = S × A × B in bytes.
func (c Config) SizeBytes() int { return c.Sets * c.Assoc * c.BlockSize }

// IndexBits returns log2(Sets), the number of address bits used to select
// a set.
func (c Config) IndexBits() int { return bits.TrailingZeros(uint(c.Sets)) }

// OffsetBits returns log2(BlockSize), the number of address bits used for
// the byte offset within a block.
func (c Config) OffsetBits() int { return bits.TrailingZeros(uint(c.BlockSize)) }

// BlockAddr strips the block offset from a byte address: the block number
// addr / BlockSize. Two addresses with equal BlockAddr always hit the
// same cache block.
func (c Config) BlockAddr(addr uint64) uint64 { return addr >> uint(c.OffsetBits()) }

// String renders the configuration as, e.g., "S=256 A=4 B=32 (32KiB)".
func (c Config) String() string {
	return fmt.Sprintf("S=%d A=%d B=%d (%s)", c.Sets, c.Assoc, c.BlockSize, FormatSize(c.SizeBytes()))
}

// FormatSize renders a byte count with a binary unit suffix, e.g. 32768
// becomes "32KiB". Sub-kilobyte sizes are rendered in bytes.
func FormatSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Policy identifies a replacement policy for the simulators that support
// more than one.
type Policy uint8

// Supported replacement policies. DEW itself is specialized for FIFO; the
// reference simulator supports all three for cross-checking and for the
// policy-comparison example.
const (
	// FIFO evicts the least recently *inserted* block (round-robin).
	// Hits do not change eviction order.
	FIFO Policy = iota
	// LRU evicts the least recently *used* block. Hits refresh recency.
	LRU
	// Random evicts a pseudo-randomly chosen way (deterministic stream).
	Random
)

// String returns the conventional name of the policy.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "FIFO"
	case LRU:
		return "LRU"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// ParsePolicy converts a name (case-sensitive, as printed by String) to a
// Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "FIFO", "fifo":
		return FIFO, nil
	case "LRU", "lru":
		return LRU, nil
	case "Random", "random", "rand":
		return Random, nil
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q", s)
}
