package core

import (
	"testing"

	"dew/internal/cache"
	"dew/internal/refsim"
	"dew/internal/trace"
)

// FuzzExactness drives the exactness invariant from raw fuzz bytes:
// every byte pair becomes an address, the first bytes pick the pass
// parameters, and every covered configuration must match the reference
// simulator. Invariants are re-checked at the end of each run.
func FuzzExactness(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(2), uint8(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(0), uint8(0), uint8(1))
	f.Add([]byte{9, 9, 1, 1, 9, 9, 1, 1, 2, 2}, uint8(3), uint8(1), uint8(3))
	f.Add(wideSeed(23, 200), uint8(4), uint8(0), uint8(1))
	f.Add(wideSeed(79, 600), uint8(6), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, logAssoc, logBlock, maxLog uint8) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		opt := Options{
			MaxLogSets: int(maxLog%5) + 1,
			Assoc:      1 << (logAssoc % 7),
			BlockSize:  1 << (logBlock % 4),
		}
		tr := make(trace.Trace, 0, len(raw)/2+1)
		for i := 0; i+1 < len(raw); i += 2 {
			// Fold into a small space so sets contend hard.
			tr = append(tr, trace.Access{Addr: uint64(raw[i])<<3 | uint64(raw[i+1])&7})
		}
		if len(tr) == 0 {
			return
		}
		s := MustNew(opt)
		if err := s.Simulate(tr.NewSliceReader()); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("invariants violated: %v", err)
		}
		for _, res := range s.Results() {
			want, err := refsim.RunTrace(res.Config, cache.FIFO, tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.Misses != want.Misses {
				t.Fatalf("config %v: DEW %d misses, reference %d", res.Config, res.Misses, want.Misses)
			}
		}
	})
}

// wideSeed is a fuzz seed for wide passes: n accesses to the blocks
// (i*i+i/3) mod m (each access's second byte is zero). wideSeed(23, 200)
// touches 21 distinct blocks, so a 16-way set fills both fingerprint
// words, then evicts; wideSeed(79, 600) touches 70, enough to fill and
// evict a 64-way set. Both hit in the cold and the warm phase.
func wideSeed(m, n int) []byte {
	raw := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		raw = append(raw, byte((i*i+i/3)%m), 0)
	}
	return raw
}
