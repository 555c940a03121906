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
	// Kinds[i].Total() == Runs[i].
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

// append adds one access's block ID, extending the current run when the
// block repeats.
func (b *BlockStream) append(id uint64) {
	if n := len(b.IDs); n > 0 && b.IDs[n-1] == id && b.Runs[n-1] < math.MaxUint32 {
		b.Runs[n-1]++
	} else {
		b.IDs = append(b.IDs, id)
		b.Runs = append(b.Runs, 1)
	}
	b.Accesses++
}

// appendKind adds one access's block ID and kind, extending the
// current run (and its kind record) when the block repeats.
func (b *BlockStream) appendKind(id uint64, k Kind) {
	if n := len(b.IDs); n > 0 && b.IDs[n-1] == id && b.Runs[n-1] < math.MaxUint32 {
		b.Runs[n-1]++
		b.Kinds[n-1].addSpan(k, 1)
	} else {
		b.IDs = append(b.IDs, id)
		b.Runs = append(b.Runs, 1)
		b.Kinds = append(b.Kinds, kindRunOf(k))
	}
	b.Accesses++
}

// appendRun appends a run of w consecutive accesses to block id with
// exactly the per-access semantics of append: the tail run grows until
// the uint32 counter saturates, then new runs are started greedily.
func (b *BlockStream) appendRun(id uint64, w uint32) {
	if w == 0 {
		return
	}
	b.Accesses += uint64(w)
	rem := uint64(w)
	if n := len(b.IDs); n > 0 && b.IDs[n-1] == id && b.Runs[n-1] < math.MaxUint32 {
		take := min(rem, uint64(math.MaxUint32-b.Runs[n-1]))
		b.Runs[n-1] += uint32(take)
		rem -= take
	}
	for rem > 0 {
		take := min(rem, math.MaxUint32)
		b.IDs = append(b.IDs, id)
		b.Runs = append(b.Runs, uint32(take))
		rem -= take
	}
}

// appendKindSpan appends n accesses of kind k to block id with exactly
// the per-access semantics of appendKind: the tail run grows until the
// uint32 counter saturates, then a new run starts.
func (b *BlockStream) appendKindSpan(id uint64, k Kind, n uint32) {
	if n == 0 {
		return
	}
	b.Accesses += uint64(n)
	if last := len(b.IDs) - 1; last >= 0 && b.IDs[last] == id && b.Runs[last] < math.MaxUint32 {
		take := min(n, math.MaxUint32-b.Runs[last])
		b.Runs[last] += take
		b.Kinds[last].addSpan(k, take)
		if n -= take; n == 0 {
			return
		}
	}
	var kr KindRun
	kr.addSpan(k, n)
	b.IDs = append(b.IDs, id)
	b.Runs = append(b.Runs, n)
	b.Kinds = append(b.Kinds, kr)
}

// appendAccesses run-compresses a batch of accesses, each block ID the
// address shifted right by off. It is the one per-access loop of run
// formation: both materializers and the generic-reader span producer
// call it. With the kind channel present (Kinds non-nil) an access with
// an invalid kind fails the batch there; without it the kind is never
// read.
func (b *BlockStream) appendAccesses(batch []Access, off uint) error {
	if b.Kinds == nil {
		for _, a := range batch {
			b.append(a.Addr >> off)
		}
		return nil
	}
	for _, a := range batch {
		if !a.Kind.Valid() {
			return fmt.Errorf("trace: invalid access kind %v at address %#x", a.Kind, a.Addr)
		}
		b.appendKind(a.Addr>>off, a.Kind)
	}
	return nil
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

// BlockStreamWithKinds materializes the in-memory trace at the given
// block size with the kind-preserving channel.
func (t Trace) BlockStreamWithKinds(blockSize int) (*BlockStream, error) {
	return MaterializeBlockStreamWithKinds(t.NewSliceReader(), blockSize)
}
