package core

import (
	"testing"
	"testing/quick"

	"dew/internal/cache"
	"dew/internal/refsim"
	"dew/internal/trace"
)

// The exactness invariant as a quick.Check property: for arbitrary short
// traces and arbitrary (in-range) pass parameters, every configuration's
// miss count matches the reference simulator. Addresses are folded into a
// small space so sets actually contend.
func TestQuickExactness(t *testing.T) {
	f := func(addrs []uint16, logAssoc, logBlock, maxLog uint8) bool {
		if len(addrs) == 0 {
			return true
		}
		opt := Options{
			MaxLogSets: int(maxLog%6) + 1,
			Assoc:      1 << (logAssoc % 5),
			BlockSize:  1 << (logBlock % 5),
		}
		tr := make(trace.Trace, len(addrs))
		for i, a := range addrs {
			tr[i] = trace.Access{Addr: uint64(a) % 2048}
		}
		s := MustNew(opt)
		if err := s.Simulate(tr.NewSliceReader()); err != nil {
			return false
		}
		for _, res := range s.Results() {
			want, err := refsim.RunTrace(res.Config, cache.FIFO, tr)
			if err != nil || res.Misses != want.Misses {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Miss counts are bounded below by compulsory misses and above by the
// access count, for arbitrary traces and parameters.
func TestQuickMissBounds(t *testing.T) {
	f := func(addrs []uint16, logAssoc uint8) bool {
		if len(addrs) == 0 {
			return true
		}
		opt := Options{MaxLogSets: 5, Assoc: 1 << (logAssoc % 5), BlockSize: 4}
		tr := make(trace.Trace, len(addrs))
		unique := map[uint64]struct{}{}
		for i, a := range addrs {
			tr[i] = trace.Access{Addr: uint64(a)}
			unique[uint64(a)/4] = struct{}{}
		}
		s := MustNew(opt)
		if err := s.Simulate(tr.NewSliceReader()); err != nil {
			return false
		}
		for _, res := range s.Results() {
			if res.Misses < uint64(len(unique)) || res.Misses > uint64(len(tr)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A pass's counters must be internally consistent: every access is
// decided at every visited level by exactly one of wave probe, MRE check
// or scan (or the P2 cut-off terminates the walk), so the per-node
// decision counts can never exceed half the node evaluations.
func TestQuickCounterConsistency(t *testing.T) {
	f := func(addrs []uint16) bool {
		if len(addrs) == 0 {
			return true
		}
		tr := make(trace.Trace, len(addrs))
		for i, a := range addrs {
			tr[i] = trace.Access{Addr: uint64(a) % 512}
		}
		s := MustNew(Options{MaxLogSets: 4, Assoc: 2, BlockSize: 1})
		if err := s.Simulate(tr.NewSliceReader()); err != nil {
			return false
		}
		c := s.Counters()
		nodesVisited := c.NodeEvaluations / 2
		// Each visited node contributes at most one decision event, and
		// P2 cut-offs happen at visited nodes too.
		if c.Searches+c.WaveCount+c.MRECount+c.MRACount > nodesVisited {
			return false
		}
		// DEW can never evaluate more nodes than the unoptimized bound.
		return c.NodeEvaluations <= s.UnoptimizedEvaluations()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
