package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"dew/internal/cache"
	"dew/internal/refsim"
	"dew/internal/trace"
)

// TestMatchFingerprintBorrow pins down the SWAR match's two behaviours
// the walk relies on: every byte equal to the fingerprint is flagged,
// and a byte of f^1 directly above a flagged byte is flagged too (the
// borrow out of the zero byte), so candidates need verifying.
func TestMatchFingerprintBorrow(t *testing.T) {
	const f = 0x5c
	word := binary.LittleEndian.Uint64([]byte{0x00, f, f ^ 1, 0x13, f, 0xff, f ^ 1, f ^ 2})
	got := matchFingerprint(word, f)
	// Bytes 1 and 4 equal f. Byte 2 (f^1, right above byte 1) is
	// flagged by the borrow; byte 5 (above byte 4, but not f^1) and
	// byte 6 (f^1, but not above a match) are not.
	want := uint64(0x80)<<8 | uint64(0x80)<<16 | uint64(0x80)<<32
	if got != want {
		t.Errorf("matchFingerprint = %#016x, want %#016x", got, want)
	}
	if matchFingerprint(word, 0x77) != 0 {
		t.Error("absent fingerprint flagged")
	}
}

// collidingIDs returns n block IDs congruent to c mod 2^maxLog (so they
// share one node at every level of a pass with MaxLogSets maxLog) whose
// fingerprint is f, found by brute force.
func collidingIDs(c uint64, maxLog int, f uint8, n int) []uint64 {
	var ids []uint64
	for k := uint64(1); len(ids) < n; k++ {
		if id := c + k<<maxLog; fingerprint(id) == f {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestFingerprintCollisions drives the fingerprint match at 8, 16, 32
// and 64 ways (each width runs its own compiled copy of the walk)
// through its hard cases on one node chain. Every ID shares the node at
// every level; half the IDs also share one fingerprint byte f,
// so each lookup meets fingerprint hits on the wrong tag, and the other
// half carry f^1, placed in the way right above an f way, so the
// has-zero-byte borrow flags false candidates as well. The cold phase
// (fill < A) fills the node alternating the two kinds; the warm phase
// (fill == A) mixes them at random. Each trace replays three times on
// one simulator, through Rebind and Reset, so the second and third
// passes find stale tags and fingerprint bytes of the very same IDs
// beyond the node's fill; and each pass mixes the entry points Access →
// AccessRuns → Access. Every pass must match a fresh instrumented pass
// and per-access refsim replay. The trace is drawn from a fixed seed,
// printed on failure.
func TestFingerprintCollisions(t *testing.T) {
	const seed = 1
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("random seed: %d", seed)
		}
	})
	rng := rand.New(rand.NewSource(seed))

	const maxLog, c = 3, 5
	f := fingerprint(c)
	for _, assoc := range []int{8, 16, 32, 64} {
		same := collidingIDs(c, maxLog, f, assoc+assoc/2)
		borrow := collidingIDs(c, maxLog, f^1, assoc)

		// Cold phase: A insertions alternating the two kinds, each pair
		// followed by a re-read of an earlier ID — a hit behind false
		// candidates.
		var ids []uint64
		for i := 0; i < assoc/2; i++ {
			ids = append(ids, same[i], borrow[i])
			ids = append(ids, ids[rng.Intn(len(ids))])
		}
		cold := len(ids)
		pool := append(append([]uint64(nil), same...), borrow...)
		for i := 0; i < 20*assoc; i++ {
			ids = append(ids, pool[rng.Intn(len(pool))])
		}
		runs := make([]uint32, len(ids))
		for i := range runs {
			runs[i] = uint32(1 + rng.Intn(3))
		}

		// Premise: after the cold phase the root holds f, f^1, f, ...
		// and a lookup of f flags a borrow candidate.
		probe := MustNew(Options{MaxLogSets: maxLog, Assoc: assoc, BlockSize: 1})
		probe.AccessRuns(ids[:cold], runs[:cold])
		root := probe.levels[0]
		if root.node[0].fill != int8(assoc) || root.fps[0] != f || root.fps[1] != f^1 {
			t.Fatalf("A=%d: premise: root fill %d, fingerprints %#x %#x", assoc, root.node[0].fill, root.fps[0], root.fps[1])
		}
		if matchFingerprint(binary.LittleEndian.Uint64(root.fps), f)&(0x80<<8) == 0 {
			t.Fatalf("A=%d: premise: no borrow candidate at way 1", assoc)
		}

		sim := MustNew(Options{MaxLogSets: maxLog, Assoc: assoc, BlockSize: 1})
		for pass, blockSize := range []int{1, 2, 2} {
			switch {
			case pass == 1:
				opt := sim.Options()
				opt.BlockSize = blockSize
				if err := sim.Rebind(opt); err != nil {
					t.Fatal(err)
				}
			case pass > 1:
				sim.Reset()
			}
			off := sim.offBits
			var tr trace.Trace
			for i, id := range ids {
				for k := uint32(0); k < runs[i]; k++ {
					tr = append(tr, trace.Access{Addr: id << off})
				}
			}
			// Access up to a cut inside the cold phase, AccessRuns into
			// the warm phase, Access for the rest.
			cut1 := 1 + rng.Intn(cold-1)
			cut2 := cold + rng.Intn(len(ids)-cold)
			access := func(lo, hi int) {
				for i := lo; i < hi; i++ {
					for k := uint32(0); k < runs[i]; k++ {
						sim.Access(trace.Access{Addr: ids[i] << off})
					}
				}
			}
			access(0, cut1)
			sim.AccessRuns(ids[cut1:cut2], runs[cut1:cut2])
			access(cut2, len(ids))

			label := fmt.Sprintf("A=%d pass %d (B=%d, cuts %d/%d)", assoc, pass, blockSize, cut1, cut2)
			if err := sim.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertSameResults(t, label, runInstrumented(t, sim.Options(), tr), sim)
			for _, res := range sim.Results() {
				want, err := refsim.RunTrace(res.Config, cache.FIFO, tr)
				if err != nil {
					t.Fatal(err)
				}
				if res.Misses != want.Misses {
					t.Errorf("%s: config %v: DEW %d misses, reference %d", label, res.Config, res.Misses, want.Misses)
				}
			}
		}
	}
}
