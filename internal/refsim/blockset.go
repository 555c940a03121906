package refsim

// blockSet records every block ID a pass has referenced, for
// compulsory-miss classification. It is the analogue of Dinero IV's
// "infinite cache": one bitmap per aligned range of 512 blocks (64
// bytes, one cache line) rather than one hash entry per block. The
// bitmaps live in a single pointer-free slab, found through a map keyed
// by range, and a small memo of recently used ranges answers the common
// case — a trace's working set spans few ranges — without touching the
// map.
type blockSet struct {
	bits  []uint64         // rangeWords words per range, in first-use order
	index map[uint64]int32 // range key → range number in bits

	// memoKey holds range key+1 per slot (0 marks an empty slot, so range
	// 0 needs no special case) and memoRange the matching range number.
	memoKey   [memoSlots]uint64
	memoRange [memoSlots]int32
}

const (
	rangeShift = 9 // 512 blocks per bitmap
	rangeWords = (1 << rangeShift) / 64
	memoBits   = 3
	memoSlots  = 1 << memoBits
)

var zeroRange [rangeWords]uint64

// add inserts blk and reports whether it was absent.
func (b *blockSet) add(blk uint64) bool {
	key := blk >> rangeShift
	slot := memoSlot(key)
	r := b.memoRange[slot]
	if b.memoKey[slot] != key+1 {
		r = b.rangeOf(key)
		b.memoKey[slot], b.memoRange[slot] = key+1, r
	}
	word := &b.bits[int(r)*rangeWords+(int(blk>>6)&(rangeWords-1))]
	bit := uint64(1) << (blk & 63)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	return true
}

// memoSlot is the memo slot of a range key: the top memoBits bits of a
// multiplicative (Fibonacci) hash, so neighbouring ranges spread out.
func memoSlot(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> (64 - memoBits) }

// rangeOf returns the range number of key, appending a cleared bitmap
// on first use. The int32 range number bounds the set at 2^31 ranges,
// a 128 GiB slab.
func (b *blockSet) rangeOf(key uint64) int32 {
	r, ok := b.index[key]
	if !ok {
		if b.index == nil {
			b.index = make(map[uint64]int32)
		}
		r = int32(len(b.bits) / rangeWords)
		b.bits = append(b.bits, zeroRange[:]...)
		b.index[key] = r
	}
	return r
}

// Reset empties the set, keeping the slab's capacity.
func (b *blockSet) Reset() {
	b.bits = b.bits[:0]
	clear(b.index)
	b.memoKey = [memoSlots]uint64{}
}
