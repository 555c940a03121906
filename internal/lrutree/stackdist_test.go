package lrutree

import (
	"math/bits"
	"math/rand"
	"testing"

	"dew/internal/stackdist"
	"dew/internal/trace"
)

// TestLRUMatchesStackDistance checks the LRU tree against an oracle
// independent of the reference simulator: the stack algorithm of
// Mattson et al., "Evaluation techniques for storage hierarchies" (IBM
// Systems Journal, 1970), which yields every associativity's LRU miss
// count at one set count from a single stack-distance pass. One
// lrutree pass per associativity covers every set count; each of its
// results must equal the stack-distance count for that set count. The
// trace is drawn from a fixed seed, printed on failure.
func TestLRUMatchesStackDistance(t *testing.T) {
	const seed = 1
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("random seed: %d", seed)
		}
	})
	rng := rand.New(rand.NewSource(seed))
	tr := make(trace.Trace, 30_000)
	var addr uint64
	for i := range tr {
		switch rng.Intn(4) {
		case 0: // sequential fetch
			addr += 4
		case 1: // hot region: short stack distances
			addr = uint64(rng.Intn(1 << 10))
		default: // cold sweep over a larger footprint
			addr = uint64(rng.Int63n(1 << 16))
		}
		tr[i] = trace.Access{Addr: addr}
	}

	const block, maxLog, maxAssoc = 16, 8, 16
	oracle := make([]*stackdist.Simulator, maxLog+1)
	for log := range oracle {
		sd, err := stackdist.Run(1<<log, block, maxAssoc, tr.NewSliceReader())
		if err != nil {
			t.Fatal(err)
		}
		oracle[log] = sd
	}
	bs, err := tr.BlockStream(block)
	if err != nil {
		t.Fatal(err)
	}
	for assoc := 2; assoc <= maxAssoc; assoc *= 2 {
		s := mustSim(Options{MaxLogSets: maxLog, Assoc: assoc, BlockSize: block})
		if err := s.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		results := s.Results()
		if len(results) != 2*(maxLog+1) {
			t.Fatalf("A%d: %d results, want %d", assoc, len(results), 2*(maxLog+1))
		}
		for _, res := range results {
			sd := oracle[bits.TrailingZeros(uint(res.Config.Sets))]
			want, err := sd.MissesFor(res.Config.Assoc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Misses != want || res.Accesses != sd.Accesses() {
				t.Errorf("%v: lrutree %d misses over %d accesses, stack distance %d over %d",
					res.Config, res.Misses, res.Accesses, want, sd.Accesses())
			}
		}
	}
}
