package trace

// This file is the kind-preserving channel of the run-compressed
// pipeline: an optional third column on BlockStream that records, per
// run, how many of the collapsed accesses were loads, stores and
// instruction fetches — plus just enough ordering (the leading store
// count and the kind of the first non-store) for the write-policy
// simulators to replay a run exactly. None of the replacement policies
// consult kinds, so the ID and run columns are bit-identical with or
// without the channel; fold, shard and span stitching all preserve it
// with the same merge decisions they already make for the weights.
//
// # Why Lead and First are enough
//
// Within one run every access touches the same block. Once any access
// installs the block it stays resident for the rest of the run (hits
// never evict), so the only intra-run ordering that can matter is what
// happens before the first installing access. Under write-allocate
// every access installs on a miss, so only the per-kind totals and the
// kind of the run's first access are observable. Under
// no-write-allocate a store miss bypasses without installing: the run's
// leading stores (Lead of them) each miss and bypass, the first
// non-store (First) installs, and everything after hits regardless of
// order. (Lead, First, per-kind totals) therefore determine every
// statistic — hit/miss counts, per-kind splits, dirty bits, memory
// traffic, tag comparisons — of a per-access replay of the run, for
// every WritePolicy × AllocPolicy combination.
//
// # Canonical order at uint32 run splits
//
// When a merged run overflows the uint32 counter the weights split
// exactly where per-access materialization splits them; the kind
// channel must split there too, which needs an intra-run access order
// beyond (Lead, First). The channel fixes a canonical expansion —
// Lead stores, the First non-store, then the remaining loads, stores
// and fetches — and defines every split against it. Per-access
// appends record exact positions (each step appends one access of one
// kind), and a block must be touched 2^32 times in a row before a
// split can land inside a summarized region, so the convention is
// unobservable outside crafted weighted inputs. Fold and shard split
// only a record they are handed, in its canonical order, so they match
// the test oracle (oracle_test.go) even at crafted near-MaxUint32
// weights. The span stitcher never splits a summary: a decode chunk
// records its head span's kinds in access order while it is formed, and
// the stitcher replays them through run formation's step.

// KindRun is one run's kind record: W counts the run's accesses by
// kind (indexed by Kind; the components sum to the run weight), Lead
// counts the stores preceding the run's first non-store access, and
// First is the kind of that first non-store access. First is
// meaningful only when the run contains a non-store (see AllWrites);
// while the run holds only stores, First stays at its zero value, so
// the zero KindRun is a valid empty run and equal records compare
// equal with ==.
type KindRun struct {
	// W is the per-kind access count, indexed by Kind.
	W [3]uint32
	// Lead is the number of stores before the first non-store access.
	// In an all-store run Lead equals W[DataWrite].
	Lead uint32
	// First is the kind of the first non-store access (DataRead or
	// IFetch); zero and meaningless while AllWrites() holds.
	First Kind
}

// AllWrites reports whether the run consists only of stores (vacuously
// true for an empty record).
func (kr KindRun) AllWrites() bool {
	return kr.W[DataRead] == 0 && kr.W[IFetch] == 0
}

// FirstKind returns the kind of the run's first access: DataWrite when
// the run opens with stores, otherwise First.
func (kr KindRun) FirstKind() Kind {
	if kr.Lead > 0 {
		return DataWrite
	}
	return kr.First
}

// addSpan appends n accesses of kind k to the end of the record's
// canonical sequence.
func (kr *KindRun) addSpan(k Kind, n uint32) {
	if n == 0 {
		return
	}
	if k == DataWrite {
		if kr.AllWrites() {
			kr.Lead += n
		}
	} else if kr.AllWrites() {
		kr.First = k
	}
	kr.W[k] += n
}

// mergeKind concatenates b's canonical sequence after a's. The caller
// guarantees the summed weight fits the run counter (the merge
// decisions are made on the weight columns).
func mergeKind(a, b KindRun) KindRun {
	out := KindRun{Lead: a.Lead, First: a.First}
	for k := range out.W {
		out.W[k] = a.W[k] + b.W[k]
	}
	if a.AllWrites() {
		// a contributes only leading stores; b's opening carries over.
		out.Lead = a.Lead + b.Lead
		out.First = b.First
	}
	return out
}

// kindSpan is one segment of a record's canonical expansion.
type kindSpan struct {
	k Kind
	n uint32
}

// spans expands kr into its canonical (kind, count) segments, written
// into buf to keep the walk allocation-free.
func (kr KindRun) spans(buf *[5]kindSpan) []kindSpan {
	s := buf[:0]
	rd, wr, iv := kr.W[DataRead], kr.W[DataWrite], kr.W[IFetch]
	if kr.Lead > 0 {
		s = append(s, kindSpan{DataWrite, kr.Lead})
		wr -= kr.Lead
	}
	if !kr.AllWrites() {
		s = append(s, kindSpan{kr.First, 1})
		if kr.First == DataRead {
			rd--
		} else {
			iv--
		}
	}
	if rd > 0 {
		s = append(s, kindSpan{DataRead, rd})
	}
	if wr > 0 {
		s = append(s, kindSpan{DataWrite, wr})
	}
	if iv > 0 {
		s = append(s, kindSpan{IFetch, iv})
	}
	return s
}

// splitKindRun cuts kr's canonical sequence after its first n accesses:
// front summarizes those n, back the rest. n must not exceed the total.
func splitKindRun(kr KindRun, n uint32) (front, back KindRun) {
	var buf [5]kindSpan
	rem := n
	for _, sp := range kr.spans(&buf) {
		if rem == 0 {
			back.addSpan(sp.k, sp.n)
			continue
		}
		take := sp.n
		if take > rem {
			take = rem
		}
		front.addSpan(sp.k, take)
		rem -= take
		if take < sp.n {
			back.addSpan(sp.k, sp.n-take)
		}
	}
	return front, back
}
