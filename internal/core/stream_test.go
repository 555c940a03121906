package core

import (
	"bytes"
	"fmt"
	"testing"

	"dew/internal/trace"
	"dew/internal/workload"
)

// runInstrumented drives the single-access instrumented path.
func runInstrumented(t *testing.T, opt Options, tr trace.Trace) *Simulator {
	t.Helper()
	s := MustNew(opt)
	for _, a := range tr {
		s.Access(a)
	}
	return s
}

// assertSameResults fails unless the two simulators agree bit for bit on
// every configuration's outcome and on the per-level miss splits.
func assertSameResults(t *testing.T, label string, want, got *Simulator) {
	t.Helper()
	wr, gr := want.Results(), got.Results()
	if len(wr) != len(gr) {
		t.Fatalf("%s: %d results vs %d", label, len(wr), len(gr))
	}
	for i := range wr {
		if wr[i] != gr[i] {
			t.Errorf("%s: result %d: want %+v, got %+v", label, i, wr[i], gr[i])
		}
	}
	for i := range want.levels {
		if want.missDM[i] != got.missDM[i] {
			t.Errorf("%s: level %d missDM: want %d, got %d",
				label, i, want.missDM[i], got.missDM[i])
		}
		if want.missA[i] != got.missA[i] {
			t.Errorf("%s: level %d missA: want %d, got %d",
				label, i, want.missA[i], got.missA[i])
		}
	}
}

// mustStream materializes tr at the option's block size.
func mustStream(t testing.TB, tr trace.Trace, blockSize int) *trace.BlockStream {
	t.Helper()
	bs, err := tr.BlockStream(blockSize)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// streamShapes are the pass shapes the equivalence tests cover: 1 to 16
// ways, a direct-mapped pass, and MinLogSets > 0 forests.
var streamShapes = []Options{
	{MaxLogSets: 6, Assoc: 4, BlockSize: 16},
	{MaxLogSets: 4, Assoc: 8, BlockSize: 4},
	{MinLogSets: 2, MaxLogSets: 7, Assoc: 2, BlockSize: 32},
	{MinLogSets: 3, MaxLogSets: 6, Assoc: 4, BlockSize: 64},
	{MaxLogSets: 5, Assoc: 1, BlockSize: 8},
	{MinLogSets: 1, MaxLogSets: 5, Assoc: 8, BlockSize: 32},
	{MaxLogSets: 3, Assoc: 16, BlockSize: 4},
}

// TestSimulateStreamEquivalence proves the stream path bit-identical to
// the instrumented per-access path across pass shapes,
// including MinLogSets > 0 forests; runs with weight > 1 are guaranteed
// by the generated workloads' sequential-fetch components.
func TestSimulateStreamEquivalence(t *testing.T) {
	for _, app := range []workload.App{workload.CJPEG, workload.MPEG2Dec} {
		tr := workload.Take(app.Generator(7), 30_000)
		for _, opt := range streamShapes {
			label := fmt.Sprintf("%s/min%d/A%d/B%d", app.Name, opt.MinLogSets, opt.Assoc, opt.BlockSize)
			bs := mustStream(t, tr, opt.BlockSize)
			if bs.CompressionRatio() <= 1 && opt.BlockSize >= 16 {
				t.Fatalf("%s: workload produced no runs to fold (ratio %.2f)", label, bs.CompressionRatio())
			}

			inst := runInstrumented(t, opt, tr)

			fast := MustNew(opt)
			if err := fast.SimulateStream(bs); err != nil {
				t.Fatal(err)
			}
			if err := fast.CheckInvariants(); err != nil {
				t.Fatalf("%s: stream-path invariants: %v", label, err)
			}
			if got := fast.Counters().Accesses; got != uint64(len(tr)) {
				t.Errorf("%s: stream path Accesses = %d, want %d", label, got, len(tr))
			}
			assertSameResults(t, label, inst, fast)
		}
	}
}

// TestSimulateStreamReaders materializes the stream through every
// batched reader front end — in-memory slice, DTB1 binary round trip,
// workload stream — and demands identical results from each.
func TestSimulateStreamReaders(t *testing.T) {
	const n = 15_000
	app := workload.DJPEG
	tr := workload.Take(app.Generator(5), n)
	opt := Options{MaxLogSets: 6, Assoc: 8, BlockSize: 16}

	want := runInstrumented(t, opt, tr)

	var bin bytes.Buffer
	bw := trace.NewBinWriter(&bin)
	for _, a := range tr {
		if err := bw.WriteAccess(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	readers := map[string]trace.Reader{
		"slice":  tr.NewSliceReader(),
		"binary": trace.NewBinReader(&bin),
		"stream": workload.Stream(app.Generator(5), n),
	}
	for name, r := range readers {
		bs, err := trace.MaterializeBlockStream(r, opt.BlockSize)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := MustNew(opt)
		if err := s.SimulateStream(bs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameResults(t, name, want, s)
	}
}

// TestSimulateStreamRejectsBlockMismatch guards the one way a stream can
// be replayed wrongly: at a block size it was not materialized for.
func TestSimulateStreamRejectsBlockMismatch(t *testing.T) {
	tr := workload.Take(workload.CJPEG.Generator(1), 100)
	bs := mustStream(t, tr, 16)
	s := MustNew(Options{MaxLogSets: 3, Assoc: 2, BlockSize: 32})
	if err := s.SimulateStream(bs); err == nil {
		t.Fatal("block-size mismatch accepted")
	}
}

// TestAccessRunsChunked splits one stream arbitrarily — including cuts
// through the middle of a run, so later chunks start mid-run — and
// demands identical results to the whole-stream replay.
func TestAccessRunsChunked(t *testing.T) {
	tr := workload.Take(workload.G721Enc.Generator(3), 20_000)
	for _, opt := range []Options{
		{MaxLogSets: 6, Assoc: 4, BlockSize: 16},
		{MinLogSets: 2, MaxLogSets: 6, Assoc: 4, BlockSize: 16},
	} {
		bs := mustStream(t, tr, opt.BlockSize)
		want := runInstrumented(t, opt, tr)

		// Chunk by runs.
		for _, chunk := range []int{1, 3, 1000} {
			s := MustNew(opt)
			for i := 0; i < bs.Len(); i += chunk {
				end := i + chunk
				if end > bs.Len() {
					end = bs.Len()
				}
				s.AccessRuns(bs.IDs[i:end], bs.Runs[i:end])
			}
			assertSameResults(t, fmt.Sprintf("chunk=%d", chunk), want, s)
		}

		// Cut every run of weight > 1 in half: the second half starts
		// mid-run and must fold into the first.
		var ids []uint64
		var runs []uint32
		for i, id := range bs.IDs {
			w := bs.Runs[i]
			if w > 1 {
				ids = append(ids, id, id)
				runs = append(runs, w/2, w-w/2)
			} else {
				ids = append(ids, id)
				runs = append(runs, w)
			}
		}
		split := MustNew(opt)
		split.AccessRuns(ids, runs)
		assertSameResults(t, "mid-run split", want, split)
		if got := split.Counters().Accesses; got != uint64(len(tr)) {
			t.Errorf("mid-run split: Accesses = %d, want %d", got, len(tr))
		}

		// Zero-weight entries are skipped without touching state.
		zeros := MustNew(opt)
		var zIDs []uint64
		var zRuns []uint32
		for i, id := range bs.IDs {
			zIDs = append(zIDs, id^0xdeadbeef, id)
			zRuns = append(zRuns, 0, bs.Runs[i])
		}
		zeros.AccessRuns(zIDs, zRuns)
		assertSameResults(t, "zero-weight entries", want, zeros)
	}
}

// TestAccessRunsInstrumented routes the stream through the counted path
// under every property ablation (which must expand runs instead of
// folding) and checks it reproduces Access's counters exactly.
func TestAccessRunsInstrumented(t *testing.T) {
	tr := workload.Take(workload.DJPEG.Generator(9), 15_000)
	ablations := []struct {
		name string
		mod  func(*Options)
	}{
		{"noMRA", func(o *Options) { o.DisableMRA = true }},
		{"noWave", func(o *Options) { o.DisableWave = true }},
		{"noMRE", func(o *Options) { o.DisableMRE = true }},
		{"none", func(o *Options) {
			o.DisableMRA, o.DisableWave, o.DisableMRE = true, true, true
		}},
	}
	base := Options{MaxLogSets: 5, Assoc: 4, BlockSize: 16}
	bs := mustStream(t, tr, base.BlockSize)
	for _, ab := range ablations {
		opt := base
		ab.mod(&opt)
		want := runInstrumented(t, opt, tr)
		got := MustNew(opt)
		if err := got.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, ab.name, want, got)
		if want.Counters() != got.Counters() {
			t.Errorf("%s: stream counters %+v, per-access counters %+v",
				ab.name, got.Counters(), want.Counters())
		}
	}
}

// TestAccessRunsInterleaved mixes the two entry points on one
// simulator: Access must keep the fast path's repeated-block memo sound,
// so an interleaved sequence matches the pure single-access sequence.
func TestAccessRunsInterleaved(t *testing.T) {
	small := Options{MaxLogSets: 2, Assoc: 2, BlockSize: 4}
	a := trace.Access{Addr: 0}
	b := trace.Access{Addr: 4}
	mixedSmall := MustNew(small)
	mixedSmall.AccessRuns([]uint64{a.Addr >> 2}, []uint32{1})
	mixedSmall.Access(b)
	mixedSmall.AccessRuns([]uint64{a.Addr >> 2}, []uint32{1})
	assertSameResults(t, "a,b,a", runInstrumented(t, small, trace.Trace{a, b, a}), mixedSmall)

	// And the long way around: stream, per-access, stream thirds of a
	// real trace.
	tr := workload.Take(workload.CJPEG.Generator(11), 12_000)
	opt := Options{MaxLogSets: 6, Assoc: 4, BlockSize: 16}
	want := runInstrumented(t, opt, tr)

	mixed := MustNew(opt)
	third := len(tr) / 3
	if err := mixed.SimulateStream(mustStream(t, tr[:third], opt.BlockSize)); err != nil {
		t.Fatal(err)
	}
	for _, a := range tr[third : 2*third] {
		mixed.Access(a)
	}
	if err := mixed.SimulateStream(mustStream(t, tr[2*third:], opt.BlockSize)); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "stream+access+stream", want, mixed)
	if got := mixed.Counters().Accesses; got != uint64(len(tr)) {
		t.Errorf("Accesses = %d, want %d", got, len(tr))
	}
}

// TestAccessRunsLazyWaveReset alternates the columnar walk, which only
// marks the wave domain stale, with the entry point that reads it —
// Access — in segments of varying length on one
// simulator. Every alternation must apply the pending reset before the
// first read, so results match per-access replay; one replica also
// validates the invariants after every segment (which applies the reset
// early) and one never does, so neither ordering can hide a missed
// reset.
func TestAccessRunsLazyWaveReset(t *testing.T) {
	tr := workload.Take(workload.MPEG2Dec.Generator(5), 40_000)
	shapes := []Options{
		{MaxLogSets: 6, Assoc: 4, BlockSize: 16},
		{MinLogSets: 2, MaxLogSets: 7, Assoc: 2, BlockSize: 8},
		{MaxLogSets: 5, Assoc: 8, BlockSize: 32},
	}
	sizes := []int{1, 7, 300, 2500, 40}
	for _, opt := range shapes {
		label := fmt.Sprintf("min%d/A%d/B%d", opt.MinLogSets, opt.Assoc, opt.BlockSize)
		want := runInstrumented(t, opt, tr)
		checked, unchecked := MustNew(opt), MustNew(opt)
		for seg, lo := 0, 0; lo < len(tr); seg++ {
			hi := min(lo+sizes[seg%len(sizes)], len(tr))
			part := tr[lo:hi]
			for _, s := range []*Simulator{checked, unchecked} {
				if seg%2 == 0 {
					if err := s.SimulateStream(mustStream(t, part, opt.BlockSize)); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, a := range part {
						s.Access(a)
					}
				}
			}
			if err := checked.CheckInvariants(); err != nil {
				t.Fatalf("%s: segment %d: %v", label, seg, err)
			}
			lo = hi
		}
		assertSameResults(t, label+" checked", want, checked)
		assertSameResults(t, label+" unchecked", want, unchecked)
		if err := unchecked.CheckInvariants(); err != nil {
			t.Fatalf("%s: final invariants: %v", label, err)
		}
	}
}

// FuzzStreamEquivalence fuzzes the stream path against the instrumented
// per-access path: arbitrary folded address streams, 1 to 64 ways,
// forest (MinLogSets > 0) shapes included.
func FuzzStreamEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(2), uint8(4), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(0), uint8(0), uint8(1), uint8(2))
	f.Add([]byte{9, 9, 1, 1, 9, 9, 1, 1, 2, 2}, uint8(3), uint8(1), uint8(3), uint8(1))
	f.Add([]byte{255, 0, 255, 1, 255, 2, 255, 3}, uint8(1), uint8(3), uint8(2), uint8(3))
	f.Add(wideSeed(23, 200), uint8(4), uint8(0), uint8(1), uint8(0))
	f.Add(wideSeed(79, 600), uint8(6), uint8(0), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, logAssoc, logBlock, maxLog, minLog uint8) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		opt := Options{
			MinLogSets: int(minLog % 4),
			MaxLogSets: int(minLog%4) + int(maxLog%5),
			Assoc:      1 << (logAssoc % 7),
			BlockSize:  1 << (logBlock % 4),
		}
		// Low bits vary inside a block so runs of weight > 1 appear.
		tr := make(trace.Trace, 0, len(raw)/2+1)
		for i := 0; i+1 < len(raw); i += 2 {
			tr = append(tr, trace.Access{Addr: uint64(raw[i])<<3 | uint64(raw[i+1])&7})
		}
		if len(tr) == 0 {
			return
		}
		bs, err := tr.BlockStream(opt.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		inst := MustNew(opt)
		for _, a := range tr {
			inst.Access(a)
		}
		fast := MustNew(opt)
		if err := fast.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		if err := fast.CheckInvariants(); err != nil {
			t.Fatalf("stream-path invariants: %v", err)
		}
		if fast.Counters().Accesses != uint64(len(tr)) {
			t.Fatalf("Accesses = %d, want %d", fast.Counters().Accesses, len(tr))
		}
		wr, gr := inst.Results(), fast.Results()
		for i := range wr {
			if wr[i] != gr[i] {
				t.Fatalf("result %d: instrumented %+v, stream %+v", i, wr[i], gr[i])
			}
		}
	})
}
