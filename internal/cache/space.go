package cache

import "fmt"

// ParamSpace describes a rectangular design space of cache configurations
// as inclusive ranges of log2 values, mirroring Table 1 of the paper:
//
//	Cache Set Size   = 2^I where MinLogSets  <= I <= MaxLogSets
//	Cache Block Size = 2^I where MinLogBlock <= I <= MaxLogBlock
//	Associativity    = 2^I where MinLogAssoc <= I <= MaxLogAssoc
type ParamSpace struct {
	MinLogSets, MaxLogSets   int
	MinLogBlock, MaxLogBlock int
	MinLogAssoc, MaxLogAssoc int
}

// PaperSpace returns the design space of Table 1: set sizes 2^0..2^14,
// block sizes 2^0..2^6 bytes and associativities 2^0..2^4, i.e. 525
// configurations covering total sizes from 1 byte to 16 MiB.
func PaperSpace() ParamSpace {
	return ParamSpace{
		MinLogSets: 0, MaxLogSets: 14,
		MinLogBlock: 0, MaxLogBlock: 6,
		MinLogAssoc: 0, MaxLogAssoc: 4,
	}
}

// Validate reports whether every range is well formed (non-negative, min
// not above max, and small enough to index with int64 block addresses).
func (p ParamSpace) Validate() error {
	type rng struct {
		name     string
		min, max int
	}
	for _, r := range []rng{
		{"sets", p.MinLogSets, p.MaxLogSets},
		{"block", p.MinLogBlock, p.MaxLogBlock},
		{"assoc", p.MinLogAssoc, p.MaxLogAssoc},
	} {
		if r.min < 0 || r.max < r.min {
			return fmt.Errorf("cache: invalid log2 range for %s: [%d, %d]", r.name, r.min, r.max)
		}
		if r.max > 30 {
			return fmt.Errorf("cache: log2 range for %s too large: max %d > 30", r.name, r.max)
		}
	}
	return nil
}

// Count returns the number of configurations in the space (525 for
// PaperSpace).
func (p ParamSpace) Count() int {
	return (p.MaxLogSets - p.MinLogSets + 1) *
		(p.MaxLogBlock - p.MinLogBlock + 1) *
		(p.MaxLogAssoc - p.MinLogAssoc + 1)
}

// BlockSizes returns the block sizes in the space in ascending order.
func (p ParamSpace) BlockSizes() []int {
	out := make([]int, 0, p.MaxLogBlock-p.MinLogBlock+1)
	for lb := p.MinLogBlock; lb <= p.MaxLogBlock; lb++ {
		out = append(out, 1<<lb)
	}
	return out
}

// Assocs returns the associativities in the space in ascending order.
func (p ParamSpace) Assocs() []int {
	out := make([]int, 0, p.MaxLogAssoc-p.MinLogAssoc+1)
	for la := p.MinLogAssoc; la <= p.MaxLogAssoc; la++ {
		out = append(out, 1<<la)
	}
	return out
}

// Stats is the minimal outcome record every simulator in this repository
// produces per configuration.
type Stats struct {
	// Accesses is the total number of memory requests simulated.
	Accesses uint64
	// Misses is the number of requests not found in the cache.
	Misses uint64
}

// MissRate returns Misses/Accesses, or 0 for an empty run.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}
