package trace

import (
	"fmt"
	"math"
	"sort"
)

// LadderFolder is the streaming form of FoldLadder: instead of folding
// a fully materialized stream once per rung, it folds finest-rung
// *spans* as they arrive, carrying exactly one pending run per doubling
// stage across span boundaries — the fold state machine's only mutable
// state is its tail run (see fold.go), so a chain of single-run carries
// reproduces FoldLadder bit-identically without ever holding a full
// stream at any rung. One streaming pass over the finest rung therefore
// feeds every block size in the ladder in O(ladder working set) memory:
// the carries plus one folded span per stage.
//
// Usage: Feed every finest-rung span in order, then Flush exactly once.
// The spans passed to visit are scratch buffers owned by the folder,
// valid only until the next Feed/Flush call — consume them before
// returning (the simulators' SimulateStream copies nothing and reads
// synchronously, which is the intended consumer).
type LadderFolder struct {
	base   int
	kinds  bool
	taps   map[int]bool
	stages []*foldStage
}

// foldStage folds one doubling. out holds the coarser stream's runs,
// and its last entry is the tail run, the fold machine's only mutable
// state (the carry across input spans); every run before it is final.
// fin is the view of the final runs a ladder cascade visits.
type foldStage struct {
	out BlockStream
	fin BlockStream
}

// NewLadderFolder builds a folder deriving every requested block size
// from finest-rung spans at base. Every requested size must be a power
// of two at least base (matching FoldLadder's contract).
func NewLadderFolder(base int, blockSizes []int, kinds bool) (*LadderFolder, error) {
	if base < 1 || base&(base-1) != 0 {
		return nil, fmt.Errorf("trace: block size must be a positive power of two, got %d", base)
	}
	sorted := append([]int(nil), blockSizes...)
	sort.Ints(sorted)
	lf := &LadderFolder{base: base, kinds: kinds, taps: make(map[int]bool, len(sorted))}
	maxSize := base
	for _, b := range sorted {
		if b < 1 || b&(b-1) != 0 {
			return nil, fmt.Errorf("trace: block size must be a positive power of two, got %d", b)
		}
		if b < base {
			return nil, fmt.Errorf("trace: cannot fold block size %d down to %d (folding only coarsens)", base, b)
		}
		lf.taps[b] = true
		maxSize = max(maxSize, b)
	}
	for size := base; size < maxSize; size <<= 1 {
		st := &foldStage{}
		st.out.BlockSize, st.fin.BlockSize = size<<1, size<<1
		if kinds {
			st.out.Kinds = []KindRun{}
		}
		lf.stages = append(lf.stages, st)
	}
	return lf, nil
}

// Blocks reports the requested rungs, ascending.
func (lf *LadderFolder) Blocks() []int {
	out := make([]int, 0, len(lf.taps))
	for b := range lf.taps {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// feed folds one input span (final runs only) onto out: the one fold
// merge/split step (see fold.go). A run whose halved ID matches the
// tail merges into it while the sum fits the uint32 counter; at the
// counter boundary the tail saturates and the remainder starts the next
// run; any other run is appended. Each input run appends at most one
// entry, so out never gains more runs than the input holds. The kind
// channel, when present, folds along: merged runs concatenate their
// kind records, and an overflow splits the source record at the same
// cut the weight split lands on (per-access semantics under the
// canonical expansion — see kind.go).
func (st *foldStage) feed(in *BlockStream, kinds bool) {
	dst := &st.out
	for i, id := range in.IDs {
		fid := id >> 1
		w := in.Runs[i]
		dst.Accesses += uint64(w)
		var kr KindRun
		if kinds {
			kr = in.Kinds[i]
		}
		if n := len(dst.IDs) - 1; n >= 0 && dst.IDs[n] == fid {
			if sum := uint64(dst.Runs[n]) + uint64(w); sum <= math.MaxUint32 {
				dst.Runs[n] = uint32(sum)
				if kinds {
					dst.Kinds[n] = mergeKind(dst.Kinds[n], kr)
				}
				continue
			} else {
				// Per-access semantics at the counter boundary: the
				// tail saturates (a saturated run is final — append
				// never regrows it), the remainder starts the next run.
				if kinds {
					var front KindRun
					front, kr = splitKindRun(kr, math.MaxUint32-dst.Runs[n])
					dst.Kinds[n] = mergeKind(dst.Kinds[n], front)
				}
				w = uint32(sum - math.MaxUint32)
				dst.Runs[n] = math.MaxUint32
			}
		}
		dst.IDs = append(dst.IDs, fid)
		dst.Runs = append(dst.Runs, w)
		if kinds {
			dst.Kinds = append(dst.Kinds, kr)
		}
	}
}

// settle drops the final runs a cascade has visited, keeping only the
// tail, at the front of out.
func (st *foldStage) settle(kinds bool) {
	out := &st.out
	n := len(out.IDs)
	if n == 0 {
		return
	}
	out.IDs[0], out.Runs[0] = out.IDs[n-1], out.Runs[n-1]
	out.IDs, out.Runs = out.IDs[:1], out.Runs[:1]
	if kinds {
		out.Kinds[0] = out.Kinds[n-1]
		out.Kinds = out.Kinds[:1]
	}
	out.Accesses = uint64(out.Runs[0])
}

// final returns the view of out's final runs: all but the tail.
func (st *foldStage) final(kinds bool) *BlockStream {
	out, fin := &st.out, &st.fin
	n := max(len(out.IDs)-1, 0)
	fin.IDs, fin.Runs, fin.Accesses = out.IDs[:n], out.Runs[:n], out.Accesses
	if n < len(out.IDs) {
		fin.Accesses -= uint64(out.Runs[n])
	}
	if kinds {
		fin.Kinds = out.Kinds[:n]
	}
	return fin
}

// cascade feeds in through stages[from:], visiting each requested rung's
// non-empty folded span.
func (lf *LadderFolder) cascade(from int, in *BlockStream, visit func(blockSize int, s *BlockStream) error) error {
	cur := in
	for sj := from; sj < len(lf.stages); sj++ {
		st := lf.stages[sj]
		st.settle(lf.kinds)
		st.feed(cur, lf.kinds)
		cur = st.final(lf.kinds)
		if lf.taps[cur.BlockSize] && cur.Len() > 0 {
			if err := visit(cur.BlockSize, cur); err != nil {
				return err
			}
		}
	}
	return nil
}

// Feed folds one finest-rung span through the ladder, visiting every
// requested rung's folded span in ascending block-size order (the base
// rung — the span itself — first, when requested). Coarser rungs may
// fold to nothing for a small span; empty spans are skipped. Spans must
// arrive in stream order, and the visited streams are scratch reused by
// the next call.
func (lf *LadderFolder) Feed(span *BlockStream, visit func(blockSize int, s *BlockStream) error) error {
	if span.BlockSize != lf.base {
		return fmt.Errorf("trace: ladder folder fed a span at block size %d, want %d", span.BlockSize, lf.base)
	}
	if lf.taps[lf.base] && span.Len() > 0 {
		if err := visit(lf.base, span); err != nil {
			return err
		}
	}
	return lf.cascade(0, span, visit)
}

// Flush drains every stage's tail in ladder order, visiting the final
// span of each requested rung. After Flush the concatenation of every
// rung's visited spans is bit-identical to FoldLadder over the
// concatenated input. Call exactly once, after the last Feed.
func (lf *LadderFolder) Flush(visit func(blockSize int, s *BlockStream) error) error {
	for si, st := range lf.stages {
		st.settle(lf.kinds)
		tail := &st.out
		if tail.Len() == 0 {
			continue
		}
		if lf.taps[tail.BlockSize] {
			if err := visit(tail.BlockSize, tail); err != nil {
				return err
			}
		}
		if err := lf.cascade(si+1, tail, visit); err != nil {
			return err
		}
	}
	return nil
}
