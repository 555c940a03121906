package refsim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// testRand returns the random source of a randomized test. The seed is
// fixed so a failure reproduces, and printed when the test fails.
func testRand(t *testing.T, seed int64) *rand.Rand {
	t.Helper()
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("random seed: %d", seed)
		}
	})
	return rand.New(rand.NewSource(seed))
}

// TestBlockSetMatchesMap checks blockSet.add against a map oracle over
// random keys, range edges, ranges that share a memo slot and blocks at
// the top of the 64-bit space, each inserted twice in shuffled order,
// then repeats the whole sequence after Reset.
func TestBlockSetMatchesMap(t *testing.T) {
	rng := testRand(t, 1)
	var keys []uint64
	for i := 0; i < 3000; i++ {
		keys = append(keys, uint64(rng.Intn(1<<16)), rng.Uint64())
	}
	for k := uint64(1); k <= 64; k++ {
		keys = append(keys, k*512-1, k*512)
	}
	// Ranges that all land in range 0's memo slot evict one another.
	colliders := 0
	for r := uint64(1); colliders < 12; r++ {
		if memoSlot(r) == memoSlot(0) {
			keys = append(keys, r<<rangeShift, r<<rangeShift+511, r<<rangeShift+64)
			colliders++
		}
	}
	keys = append(keys, 0, 511)
	for i := uint64(0); i < 1100; i++ {
		keys = append(keys, math.MaxUint64-i)
	}
	keys = append(keys, keys...)

	var set blockSet
	for round := 0; round < 2; round++ {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		oracle := map[uint64]bool{}
		for _, blk := range keys {
			if got, want := set.add(blk), !oracle[blk]; got != want {
				t.Fatalf("round %d: add(%#x) = %v, want %v", round, blk, got, want)
			}
			oracle[blk] = true
		}
		slab := cap(set.bits)
		set.Reset()
		if len(set.bits) != 0 || cap(set.bits) != slab {
			t.Fatalf("Reset: slab len %d cap %d, want 0 and %d", len(set.bits), cap(set.bits), slab)
		}
	}
}

// TestBlockSetSparseFootprint bounds the set's worst case — every block
// in a range of its own, so each pays a whole bitmap and an index
// entry — at under 128 bytes of live heap per distinct block.
func TestBlockSetSparseFootprint(t *testing.T) {
	const n = 1 << 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	set := new(blockSet)
	for i := uint64(0); i < n; i++ {
		set.add(i << 20)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(set)
	if per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n; per >= 128 {
		t.Errorf("%.1f bytes per distinct block, want < 128", per)
	} else {
		t.Logf("%.1f bytes per distinct block", per)
	}
}
