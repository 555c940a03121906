package trace

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"
)

// This file is the run-formation oracle: a deliberately naive
// expand-and-group that shares no code with the package's run machines
// (openRun and step, appendKindRun, addSpan, mergeKind, splitKindRun).
// It takes the access sequence — single accesses, or weighted entries
// standing for many accesses of one block — groups
// maximal stretches of equal block IDs, cuts each group into runs of
// at most MaxUint32 accesses from the front, and summarizes each run's
// kinds straight from KindRun's definition. The materializers, the
// span pipeline and the fold are all held to it.

// oracleSeg is n consecutive accesses of kind k.
type oracleSeg struct {
	k Kind
	n uint64
}

// oracleGroup is one maximal same-ID stretch of the access sequence:
// its total weight and, in order, the kinds of its accesses.
type oracleGroup struct {
	id   uint64
	n    uint64
	segs []oracleSeg
}

// runOracle accumulates the access sequence as groups.
type runOracle struct {
	blockSize int
	kinds     bool
	groups    []oracleGroup
}

func newRunOracle(blockSize int, kinds bool) *runOracle {
	return &runOracle{blockSize: blockSize, kinds: kinds}
}

// add appends n accesses of block id whose kinds are segs, in order.
func (o *runOracle) add(id, n uint64, segs ...oracleSeg) {
	if n == 0 {
		return
	}
	if g := len(o.groups) - 1; g >= 0 && o.groups[g].id == id {
		o.groups[g].n += n
		o.groups[g].segs = append(o.groups[g].segs, segs...)
		return
	}
	o.groups = append(o.groups, oracleGroup{id: id, n: n, segs: append([]oracleSeg(nil), segs...)})
}

// addTrace appends every access of tr at the oracle's block size.
func (o *runOracle) addTrace(tr Trace) {
	off := bits.TrailingZeros(uint(o.blockSize))
	for _, a := range tr {
		o.add(a.Addr>>off, 1, oracleSeg{a.Kind, 1})
	}
}

// addKindRun appends a weighted run of block id whose kinds follow
// kr's canonical expansion: the Lead stores, the First non-store, then
// the remaining loads, stores and fetches.
func (o *runOracle) addKindRun(id uint64, kr KindRun) {
	rd, wr, fe := uint64(kr.W[DataRead]), uint64(kr.W[DataWrite]), uint64(kr.W[IFetch])
	segs := []oracleSeg{{DataWrite, uint64(kr.Lead)}}
	wr -= uint64(kr.Lead)
	if rd+fe > 0 {
		segs = append(segs, oracleSeg{kr.First, 1})
		if kr.First == DataRead {
			rd--
		} else {
			fe--
		}
	}
	segs = append(segs, oracleSeg{DataRead, rd}, oracleSeg{DataWrite, wr}, oracleSeg{IFetch, fe})
	o.add(id, kr.Total(), segs...)
}

// stream cuts every group into runs of at most MaxUint32 accesses,
// front first, and summarizes each run's kinds.
func (o *runOracle) stream() *BlockStream {
	bs := &BlockStream{BlockSize: o.blockSize}
	if o.kinds {
		bs.Kinds = []KindRun{}
	}
	for _, g := range o.groups {
		segs := append([]oracleSeg(nil), g.segs...)
		for rem := g.n; rem > 0; {
			n := min(rem, math.MaxUint32)
			bs.IDs = append(bs.IDs, g.id)
			bs.Runs = append(bs.Runs, uint32(n))
			bs.Accesses += n
			if o.kinds {
				var kr KindRun
				kr, segs = oracleKindRecord(segs, n)
				bs.Kinds = append(bs.Kinds, kr)
			}
			rem -= n
		}
	}
	return bs
}

// oracleKindRecord summarizes the first n accesses of segs by
// KindRun's definition — W counts them by kind, Lead counts the stores
// before the first non-store, First is that non-store's kind (zero
// while there is none) — and returns the accesses after them.
func oracleKindRecord(segs []oracleSeg, n uint64) (KindRun, []oracleSeg) {
	var kr KindRun
	nonStore := false
	for n > 0 {
		s := &segs[0]
		take := min(s.n, n)
		if take > 0 {
			kr.W[s.k] += uint32(take)
			switch {
			case s.k == DataWrite && !nonStore:
				kr.Lead += uint32(take)
			case s.k != DataWrite && !nonStore:
				kr.First, nonStore = s.k, true
			}
		}
		s.n -= take
		n -= take
		if s.n == 0 {
			segs = segs[1:]
		}
	}
	return kr, segs
}

// oracleOf is the oracle's stream for a trace.
func oracleOf(tr Trace, blockSize int, kinds bool) *BlockStream {
	o := newRunOracle(blockSize, kinds)
	o.addTrace(tr)
	return o.stream()
}

// weightedOracle is the oracle's stream, kind-free and with kinds, for
// weighted entries: runs[i] accesses of ids[i] whose kinds follow
// kinds[i] (each record's Total equals its weight).
func weightedOracle(blockSize int, ids []uint64, runs []uint32, kinds []KindRun) (plain, withKinds *BlockStream) {
	o, ok := newRunOracle(blockSize, false), newRunOracle(blockSize, true)
	for i, id := range ids {
		o.add(id, uint64(runs[i]))
		ok.addKindRun(id, kinds[i])
	}
	return o.stream(), ok.stream()
}

// TestAppendMatchesOracleAtSaturation drives the per-access machine —
// the materializers' and every decode chunk's — across the uint32
// counter boundary, which a decoded trace never reaches: the tail run
// is seeded a few accesses short of MaxUint32 (or at it), and a batch
// of accesses that repeats its block, leaves and returns is appended
// through appendAccesses, on a bare stream and on a decode chunk, and
// as .din text through the chunk kernel. Each route reopens the seeded
// run into the open run it holds in locals, so the counter's guard is
// the one the loops run.
func TestAppendMatchesOracleAtSaturation(t *testing.T) {
	const id = 7
	batch := Trace{
		{Addr: id, Kind: DataWrite}, {Addr: id, Kind: DataRead}, {Addr: id, Kind: IFetch},
		{Addr: id, Kind: DataWrite}, {Addr: id + 1, Kind: DataRead}, {Addr: id, Kind: IFetch},
		{Addr: id, Kind: DataWrite},
	}
	for _, short := range []uint32{0, 1, 2, 3, 4, 8} {
		for sel := uint8(0); sel < 5; sel++ {
			for _, kinds := range []bool{false, true} {
				seedW := math.MaxUint32 - short
				seed := testKindRun(sel, seedW)
				label := fmt.Sprintf("short=%d sel=%d kinds=%v", short, sel, kinds)

				o := newRunOracle(1, kinds)
				o.addKindRun(id, seed)
				o.addTrace(batch)
				want := o.stream()

				bs := &BlockStream{BlockSize: 1, IDs: []uint64{id}, Runs: []uint32{seedW}, Accesses: uint64(seedW)}
				var c runChunk
				c.reserve(kinds, len(batch), len(batch))
				c.IDs, c.Runs, c.Accesses = append(c.IDs, id), append(c.Runs, seedW), uint64(seedW)
				if kinds {
					bs.Kinds = []KindRun{seed}
					c.Kinds = append(c.Kinds, seed)
				}
				din := c
				din.IDs, din.Runs = slices.Clone(c.IDs), slices.Clone(c.Runs)
				din.Kinds = slices.Clone(c.Kinds)
				for _, b := range []*BlockStream{bs, &c.BlockStream} {
					if err := b.appendAccesses(batch, 0); err != nil {
						t.Fatal(err)
					}
				}
				if err := din.appendDin(dinText(batch), 1, 0, kinds); err != nil {
					t.Fatal(err)
				}
				sameBlockStream(t, label, bs, want)
				c.BlockSize, din.BlockSize = 1, 1
				sameBlockStream(t, label+" chunk", &c.BlockStream, want)
				sameBlockStream(t, label+" din kernel", &din.BlockStream, want)
			}
		}
	}
}

// TestOracleSplitsAtCounter pins the oracle itself on a hand-worked
// case: 2^32+1 accesses of one block, opening with 2^32-2 stores, form
// a saturated run and a run of 2.
func TestOracleSplitsAtCounter(t *testing.T) {
	o := newRunOracle(4, true)
	o.add(3, math.MaxUint32-1, oracleSeg{DataWrite, math.MaxUint32 - 1})
	o.add(3, 3, oracleSeg{IFetch, 1}, oracleSeg{DataRead, 1}, oracleSeg{DataWrite, 1})
	got := o.stream()
	want := &BlockStream{
		BlockSize: 4,
		IDs:       []uint64{3, 3},
		Runs:      []uint32{math.MaxUint32, 2},
		Kinds: []KindRun{
			{W: [3]uint32{0, math.MaxUint32 - 1, 1}, Lead: math.MaxUint32 - 1, First: IFetch},
			{W: [3]uint32{1, 1, 0}, First: DataRead},
		},
		Accesses: math.MaxUint32 + 2,
	}
	sameBlockStream(t, "oracle", got, want)
}
