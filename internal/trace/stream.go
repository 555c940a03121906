package trace

import (
	"fmt"
	"math"
	"math/bits"
)

// BlockStream is a columnar, run-length-compressed view of an address
// trace at one block size: IDs[i] is a block address (Addr >> log2 of
// the block size) and Runs[i] counts how many consecutive accesses fell
// into that block. Consecutive entries always carry distinct IDs except
// where a run overflowed the uint32 run counter (then it continues in
// the next entry).
//
// The stream is the shared frontend of the multi-configuration
// simulators: instruction traces are dominated by sequential fetch, so
// at a block size of B bytes roughly B/4 consecutive accesses share one
// block, and collapsing those runs once — instead of re-shifting and
// re-comparing every raw address once per simulation pass — removes the
// per-access work from every (associativity, policy) pass that replays
// the stream. One materialization even covers the whole block-size
// axis: the stream at any coarser power-of-two size is fold-derived in
// O(runs) (FoldBlockStream, FoldLadder), bit-identical to decoding the
// trace again at that size. A materialized BlockStream is immutable by
// convention: every consumer only reads it, so one stream can be shared
// freely across goroutines (the parallel sweep hands the same stream to
// every cell and reference pass).
//
// Folding runs is exact for the simulators in this repository: a
// repeated block address hits the most-recently-accessed entry of every
// configuration containing it (DEW's Property 2, lrutree's same-block
// pruning, a plain hit in the reference simulator) and such hits change
// no replacement state, so replaying "ID × weight" is bit-identical to
// replaying the expanded accesses.
//
// Kinds are optional: none of the replacement policies simulated here
// consult the request kind, so the default materialization drops kinds
// and a run may collapse accesses of different kinds. Consumers that
// need per-kind statistics or write-policy semantics (refsim's
// write/alloc axes, the energy model's read/write split) materialize
// the stream with the kind-preserving channel instead
// (MaterializeBlockStreamWithKinds, SpanOptions.Kinds): a parallel
// Kinds column records each run's per-kind weights plus the ordering a
// write-policy replay needs (see KindRun). The channel is a strict
// superset — the ID and run columns are bit-identical either way — and
// every pipeline stage (fold, shard, span stitching) preserves it.
type BlockStream struct {
	// BlockSize is the block size in bytes the stream was materialized
	// at (a positive power of two).
	BlockSize int
	// IDs holds the run-compressed block addresses.
	IDs []uint64
	// Runs holds the run length of each ID, parallel to IDs; every
	// entry is at least 1.
	Runs []uint32
	// Kinds is the optional kind-preserving channel, parallel to IDs;
	// nil when the stream was materialized without kinds. When present,
	// the counts of Kinds[i].W sum to Runs[i].
	Kinds []KindRun
	// Accesses is the total access count, the sum over Runs.
	Accesses uint64
}

// HasKinds reports whether the stream carries the kind-preserving
// channel.
func (b *BlockStream) HasKinds() bool { return b.Kinds != nil }

// Len returns the number of runs in the stream.
func (b *BlockStream) Len() int { return len(b.IDs) }

// CompressionRatio returns accesses per run — how many raw accesses the
// average stream entry stands for. 8 means a pass over the stream walks
// one eighth of the trace length.
func (b *BlockStream) CompressionRatio() float64 {
	if len(b.IDs) == 0 {
		return 0
	}
	return float64(b.Accesses) / float64(len(b.IDs))
}

// KindTotals returns the stream's per-kind access totals, indexed by
// Kind. All zeros when the stream carries no kind channel; otherwise
// the totals sum to Accesses. Every configuration replaying the stream
// sees the same request mix, so the totals are a property of the trace
// — the energy model's read/write split prices stores from them
// without any per-configuration kind bookkeeping.
func (b *BlockStream) KindTotals() [3]uint64 {
	var t [3]uint64
	for i := range b.Kinds {
		for k, w := range b.Kinds[i].W {
			t[k] += uint64(w)
		}
	}
	return t
}

// openRun is run formation's only mutable state: the run at the tail
// of the stream, which the next access may still extend. Every run
// before it is final. Producers hold it in locals while they form runs
// and write it to the columns only once it closes. It is four machine
// words, so it travels in registers, with the kind channel's KindRun
// packed into the halves of wf, rf and sl. The zero value is the empty
// run: it holds no block, so any access grows it.
type openRun struct {
	id uint64
	// wf holds the weight (low half) and KindRun.First (high half).
	wf uint64
	// rf counts the loads (low half) and fetches (high half): the
	// non-stores, so it is zero while every access is a store.
	rf uint64
	// sl counts the stores (low half) and holds KindRun.Lead (high
	// half).
	sl uint64
}

// kindWords is one access of each kind in openRun's rf and sl.
var kindWords = [3]struct{ rf, sl uint64 }{
	DataRead:  {rf: 1},
	DataWrite: {sl: 1},
	IFetch:    {rf: 1 << 32},
}

// openRunOf reopens a closed run: block id, weight w and, with the kind
// channel, its record kr.
func openRunOf(id uint64, w uint32, kr KindRun, kinds bool) openRun {
	r := openRun{id: id, wf: uint64(w)}
	if kinds {
		r.wf |= uint64(kr.First) << 32
		r.rf = uint64(kr.W[DataRead]) | uint64(kr.W[IFetch])<<32
		r.sl = uint64(kr.W[DataWrite]) | uint64(kr.Lead)<<32
	}
	return r
}

// weight returns the number of accesses r holds.
func (r openRun) weight() uint32 { return uint32(r.wf) }

// fits reports whether n more accesses of block id grow r in place: r
// is empty or holds id, and its counter has room for them.
func (r openRun) fits(id uint64, n uint32) bool {
	return (r.id == id || r.wf == 0) && r.weight() <= math.MaxUint32-n
}

// grow adds n ≥ 1 accesses of block id and kind k (read only with the
// kind channel) to r, which fits them: KindRun.addSpan on the packed
// record.
func (r openRun) grow(id uint64, k Kind, n uint32, kinds bool) openRun {
	r.id = id
	if kinds {
		if r.rf == 0 { // every access so far is a store
			if k == DataWrite {
				r.sl += uint64(n) << 32
			} else {
				r.wf |= uint64(k) << 32
			}
		}
		r.rf += uint64(n) * kindWords[k].rf
		r.sl += uint64(n) * kindWords[k].sl
	}
	r.wf += uint64(n)
	return r
}

// close appends r, which is not empty, to b's columns as a final run.
// The per-access loops run it on every run they close, so it must stay
// within the compiler's inlining budget (go build -gcflags=-m).
func (b *BlockStream) close(r openRun, kinds bool) {
	b.IDs = append(b.IDs, r.id)
	b.Runs = append(b.Runs, uint32(r.wf))
	if kinds {
		// Field by field into the column: copying a whole record built
		// by narrow stores stalls on store forwarding.
		b.Kinds = append(b.Kinds, KindRun{})
		kr := &b.Kinds[len(b.Kinds)-1]
		kr.W[DataRead], kr.W[DataWrite], kr.W[IFetch] = uint32(r.rf), uint32(r.sl), uint32(r.rf>>32)
		kr.Lead, kr.First = uint32(r.sl>>32), Kind(r.wf>>32)
	}
}

// step is run formation, the one machine every producer runs: it adds
// n accesses of block id (of kind k when kinds is set; otherwise the
// kind is not read) to the open run r and returns the open run after
// them. r grows while it holds id and its uint32 counter has room; a
// run that closes — another block arrives, or the counter saturates,
// when the rest of the n opens the next run — is appended to b's
// columns. One step closes at most one run. b.Accesses is the
// caller's to count.
//
// Its operations — fits and grow in place, else close and open — each
// inline, so a per-access loop (n = 1, where a saturated run simply
// closes) runs them itself instead of calling step.
func (b *BlockStream) step(r openRun, id uint64, k Kind, n uint32, kinds bool) openRun {
	if n == 0 {
		return r
	}
	if w := r.weight(); (r.id == id || w == 0) && w < math.MaxUint32 {
		take := min(n, math.MaxUint32-w)
		if r = r.grow(id, k, take, kinds); take == n {
			return r
		}
		n -= take
	}
	b.close(r, kinds)
	return openRun{}.grow(id, k, n, kinds)
}

// reopen takes b's tail run off its columns as the open run, so run
// formation can continue the stream; close puts it back (unless it is
// empty).
func (b *BlockStream) reopen() openRun {
	n := len(b.IDs) - 1
	if n < 0 {
		return openRun{}
	}
	kinds := b.Kinds != nil
	var kr KindRun
	if kinds {
		kr = b.Kinds[n]
		b.Kinds = b.Kinds[:n]
	}
	r := openRunOf(b.IDs[n], b.Runs[n], kr, kinds)
	b.IDs, b.Runs = b.IDs[:n], b.Runs[:n]
	return r
}

// appendAccesses run-compresses a batch of accesses, each block ID the
// address shifted right by off, continuing b's tail run: the
// materializers and the generic-reader span producer form their runs
// here. With the kind channel present (Kinds non-nil) an access with an
// invalid kind fails the batch there; without it the kind is never
// read.
func (b *BlockStream) appendAccesses(batch []Access, off uint) error {
	kinds := b.Kinds != nil
	r := b.reopen()
	var err error
	n := len(batch)
	for i, a := range batch {
		if kinds && !a.Kind.Valid() {
			err = fmt.Errorf("trace: invalid access kind %v at address %#x", a.Kind, a.Addr)
			n = i
			break
		}
		if id := a.Addr >> off; r.fits(id, 1) {
			r = r.grow(id, a.Kind, 1, kinds)
		} else {
			b.close(r, kinds)
			r = openRun{}.grow(id, a.Kind, 1, kinds)
		}
	}
	if r.wf != 0 {
		b.close(r, kinds)
	}
	b.Accesses += uint64(n)
	return err
}

// MaterializeBlockStream drains the reader into a run-compressed block
// stream for the given block size. Reads go through the batched path
// (trace.BatchReader), and runs are collapsed across batch boundaries.
func MaterializeBlockStream(r Reader, blockSize int) (*BlockStream, error) {
	return materialize(r, blockSize, false)
}

// MaterializeBlockStreamWithKinds is MaterializeBlockStream with the
// kind-preserving channel: the ID and run columns are bit-identical to
// the kind-free materialization, and Kinds records each run's per-kind
// weights and write-policy ordering. Accesses with invalid kinds are
// rejected (the kind-free path tolerates them because it never reads
// the kind).
func MaterializeBlockStreamWithKinds(r Reader, blockSize int) (*BlockStream, error) {
	return materialize(r, blockSize, true)
}

func materialize(r Reader, blockSize int, kinds bool) (*BlockStream, error) {
	if blockSize < 1 || blockSize&(blockSize-1) != 0 {
		return nil, fmt.Errorf("trace: block size must be a positive power of two, got %d", blockSize)
	}
	bs := &BlockStream{BlockSize: blockSize}
	if kinds {
		bs.Kinds = []KindRun{}
	}
	off := uint(bits.TrailingZeros(uint(blockSize)))
	var badKind error
	err := Drain(r, func(batch []Access) {
		if badKind == nil {
			badKind = bs.appendAccesses(batch, off)
		}
	})
	if err == nil {
		err = badKind
	}
	if err != nil {
		return nil, err
	}
	return bs, nil
}

// BlockStream materializes the in-memory trace at the given block size.
func (t Trace) BlockStream(blockSize int) (*BlockStream, error) {
	return MaterializeBlockStream(t.NewSliceReader(), blockSize)
}
