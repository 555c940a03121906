package trace

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// foldViaFolder feeds the given spans through a LadderFolder and
// concatenates every visited rung span — the streamed counterpart of
// FoldLadder over the spans' concatenation.
func foldViaFolder(t *testing.T, base int, sizes []int, kinds bool, spans []*BlockStream) map[int]*BlockStream {
	t.Helper()
	lf, err := NewLadderFolder(base, sizes, kinds)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]*BlockStream, len(sizes))
	for _, b := range lf.Blocks() {
		acc := &BlockStream{BlockSize: b}
		if kinds {
			acc.Kinds = []KindRun{}
		}
		got[b] = acc
	}
	prev := 0 // ascending visit order within one Feed
	visit := func(blockSize int, s *BlockStream) error {
		acc, ok := got[blockSize]
		if !ok {
			t.Fatalf("visited unrequested rung %d", blockSize)
		}
		if s.BlockSize != blockSize {
			t.Fatalf("rung %d span carries block size %d", blockSize, s.BlockSize)
		}
		if prev >= 0 && blockSize <= prev {
			t.Fatalf("rung %d visited after rung %d in one Feed", blockSize, prev)
		}
		if prev >= 0 {
			prev = blockSize
		}
		acc.IDs = append(acc.IDs, s.IDs...)
		acc.Runs = append(acc.Runs, s.Runs...)
		if kinds {
			acc.Kinds = append(acc.Kinds, s.Kinds...)
		}
		acc.Accesses += s.Accesses
		return nil
	}
	for _, s := range spans {
		prev = 0
		if err := lf.Feed(s, visit); err != nil {
			t.Fatal(err)
		}
	}
	prev = -1 // Flush drains carries stage by stage, revisiting rungs
	if err := lf.Flush(visit); err != nil {
		t.Fatal(err)
	}
	return got
}

// splitRuns cuts a materialized stream into spans of n runs each —
// every cut is at a final-run boundary, exactly as the span pipeline
// cuts.
func splitRuns(bs *BlockStream, n int) []*BlockStream {
	var out []*BlockStream
	for i := 0; i < len(bs.IDs); i += n {
		end := min(i+n, len(bs.IDs))
		s := &BlockStream{BlockSize: bs.BlockSize, IDs: bs.IDs[i:end], Runs: bs.Runs[i:end]}
		if bs.Kinds != nil {
			s.Kinds = bs.Kinds[i:end]
		}
		for _, w := range s.Runs {
			s.Accesses += uint64(w)
		}
		out = append(out, s)
	}
	return out
}

func TestLadderFolderMatchesFoldLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sizes := []int{4, 8, 32, 64}
	for _, n := range []int{0, 1, 9, 3000, 30000} {
		tr := pipelineTrace(rng, n)
		for _, kinds := range []bool{false, true} {
			var base *BlockStream
			var err error
			if kinds {
				base, err = MaterializeBlockStreamWithKinds(tr.NewSliceReader(), 4)
			} else {
				base, err = tr.BlockStream(4)
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := FoldLadder(base, sizes)
			if err != nil {
				t.Fatal(err)
			}
			for _, spanN := range []int{1, 2, 7, 1024} {
				got := foldViaFolder(t, 4, sizes, kinds, splitRuns(base, spanN))
				for _, b := range sizes {
					sameBlockStream(t, fmt.Sprintf("n=%d kinds=%v spanN=%d rung %d", n, kinds, spanN, b), got[b], want[b])
				}
			}
		}
	}
}

// TestLadderFolderStreamedPipeline closes the loop: pipeline spans fed
// straight into the folder reproduce FoldLadder over the materialized
// stream at every rung.
func TestLadderFolderStreamedPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tr := pipelineTrace(rng, 25000)
	sizes := []int{4, 16, 64}
	base, err := MaterializeBlockStreamWithKinds(tr.NewSliceReader(), 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FoldLadder(base, sizes)
	if err != nil {
		t.Fatal(err)
	}
	p, err := streamSpansWithRuns(context.Background(), tr.NewSliceReader(), 4,
		SpanOptions{MemBytes: 1, Workers: 3, Kinds: true}, 5, 499)
	if err != nil {
		t.Fatal(err)
	}
	var spans []*BlockStream
	for s := range p.Spans() {
		spans = append(spans, &s.BlockStream)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	got := foldViaFolder(t, 4, sizes, true, spans)
	for _, b := range sizes {
		sameBlockStream(t, fmt.Sprintf("streamed rung %d", b), got[b], want[b])
	}
}

// TestLadderFolderWeightedOverflow drives near-MaxUint32 run weights
// through the folder so carry merges overflow the uint32 counter at
// span boundaries.
func TestLadderFolderWeightedOverflow(t *testing.T) {
	const m = math.MaxUint32
	parent := &BlockStream{BlockSize: 4}
	parentK := &BlockStream{BlockSize: 4, Kinds: []KindRun{}}
	for i := 0; i < 120; i++ {
		// 8 and 9 fold to the same coarser block, so the folder's carry
		// must merge and overflow-split across these boundaries.
		ids := []uint64{8, 9, 2, 9}
		runs := []uint32{m - 5, 11, uint32(i + 1), m}
		for j := range ids {
			parent.push(ids[j], 0, runs[j])
			parentK.appendKindRun(ids[j], testKindRun(uint8((i+j)%5), runs[j]))
		}
	}
	sizes := []int{8, 16}
	wantP, err := FoldLadder(parent, sizes)
	if err != nil {
		t.Fatal(err)
	}
	wantK, err := FoldLadder(parentK, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, spanN := range []int{1, 3, 50, len(parent.IDs)} {
		got := foldViaFolder(t, 4, sizes, false, splitRuns(parent, spanN))
		gotK := foldViaFolder(t, 4, sizes, true, splitRuns(parentK, spanN))
		for _, b := range sizes {
			sameBlockStream(t, fmt.Sprintf("spanN=%d rung %d", spanN, b), got[b], wantP[b])
			sameBlockStream(t, fmt.Sprintf("spanN=%d rung %d kinds", spanN, b), gotK[b], wantK[b])
		}
	}
}

func TestLadderFolderRejectsBadArgs(t *testing.T) {
	if _, err := NewLadderFolder(3, []int{8}, false); err == nil {
		t.Error("want error for non-power-of-two base")
	}
	if _, err := NewLadderFolder(8, []int{4}, false); err == nil {
		t.Error("want error for rung below base")
	}
	if _, err := NewLadderFolder(8, []int{24}, false); err == nil {
		t.Error("want error for non-power-of-two rung")
	}
	lf, err := NewLadderFolder(8, []int{8, 32}, false)
	if err != nil {
		t.Fatal(err)
	}
	bad := &BlockStream{BlockSize: 16}
	if err := lf.Feed(bad, func(int, *BlockStream) error { return nil }); err == nil {
		t.Error("want error for span at the wrong block size")
	}
}
