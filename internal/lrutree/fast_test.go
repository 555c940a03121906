package lrutree

import (
	"fmt"
	"testing"

	"dew/internal/trace"
)

// runInstrumented drives the single-access instrumented path.
func runInstrumented(t *testing.T, opt Options, tr trace.Trace) *Simulator {
	t.Helper()
	s := mustSim(opt)
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
			t.Errorf("%s: result %d: instrumented %+v, fast %+v", label, i, wr[i], gr[i])
		}
	}
	for i := range want.levels {
		if want.missDM[i] != got.missDM[i] {
			t.Errorf("%s: level %d missDM: instrumented %d, fast %d",
				label, i, want.missDM[i], got.missDM[i])
		}
		if want.missA[i] != got.missA[i] {
			t.Errorf("%s: level %d missA: instrumented %d, fast %d",
				label, i, want.missA[i], got.missA[i])
		}
	}
}

var fastShapes = []Options{
	{MaxLogSets: 6, Assoc: 4, BlockSize: 16},
	{MaxLogSets: 4, Assoc: 8, BlockSize: 4},
	{MinLogSets: 2, MaxLogSets: 7, Assoc: 2, BlockSize: 32},
	{MaxLogSets: 5, Assoc: 1, BlockSize: 8},
	{MinLogSets: 1, MaxLogSets: 4, Assoc: 16, BlockSize: 4},
}

// TestAccessBatchEquivalence checks the counter-free fast path, fed raw
// accesses whole and in 997-access batches that each fold into a block
// stream of their own, against the instrumented path across pass shapes,
// including forests.
func TestAccessBatchEquivalence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		tr := streakyTrace(20_000, 1<<13, seed)
		for _, opt := range fastShapes {
			label := fmt.Sprintf("seed%d/min%d/A%d/B%d", seed, opt.MinLogSets, opt.Assoc, opt.BlockSize)
			want := runInstrumented(t, opt, tr)

			fast := mustSim(opt)
			simulateBatch(t, fast, tr)
			if got := fast.Counters().Accesses; got != uint64(len(tr)) {
				t.Errorf("%s: fast path Accesses = %d, want %d", label, got, len(tr))
			}
			assertSameResults(t, label, want, fast)

			// Batched delivery cannot change results, even where a batch
			// boundary cuts a run.
			split := mustSim(opt)
			for i := 0; i < len(tr); i += 997 {
				simulateBatch(t, split, tr[i:min(i+997, len(tr))])
			}
			assertSameResults(t, label+"/batched", want, split)
		}
	}
}

// simulateBatch folds one batch of raw accesses into a block stream and
// replays it on the fast path.
func simulateBatch(t *testing.T, s *Simulator, batch trace.Trace) {
	t.Helper()
	bs, err := batch.BlockStream(s.opt.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SimulateStream(bs); err != nil {
		t.Fatal(err)
	}
}

// TestSimulateStreamEquivalence checks the stream entry point — run
// weights folded, chunked delivery, mid-run chunk starts — against the
// instrumented path across pass shapes, including forests.
func TestSimulateStreamEquivalence(t *testing.T) {
	for seed := int64(5); seed < 8; seed++ {
		testStreamEquivalence(t, streakyTrace(20_000, 1<<13, seed), fmt.Sprintf("seed%d", seed))
	}
}

func testStreamEquivalence(t *testing.T, tr trace.Trace, name string) {
	for _, opt := range fastShapes {
		label := fmt.Sprintf("%s/min%d/A%d/B%d", name, opt.MinLogSets, opt.Assoc, opt.BlockSize)
		bs, err := tr.BlockStream(opt.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		want := runInstrumented(t, opt, tr)

		fast := mustSim(opt)
		if err := fast.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		if got := fast.Counters().Accesses; got != uint64(len(tr)) {
			t.Errorf("%s: stream Accesses = %d, want %d", label, got, len(tr))
		}
		assertSameResults(t, label, want, fast)

		// Chunked delivery cannot change results.
		chunked := mustSim(opt)
		for i := 0; i < bs.Len(); i += 997 {
			end := min(i+997, bs.Len())
			chunked.AccessRuns(bs.IDs[i:end], bs.Runs[i:end])
		}
		assertSameResults(t, label+"/chunked", want, chunked)

		// Cut runs of weight > 1 in half: later chunks start mid-run.
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
		split := mustSim(opt)
		split.AccessRuns(ids, runs)
		assertSameResults(t, label+"/mid-run", want, split)
	}
}

// TestAccessRunsInstrumented checks the arithmetic fold on the counted
// path and the expansion under ablations.
func TestAccessRunsInstrumented(t *testing.T) {
	tr := streakyTrace(10_000, 1<<12, 8)
	mods := []struct {
		name string
		mod  func(*Options)
	}{
		{"instrument", func(o *Options) { o.Instrument = true }},
		{"noSameBlock", func(o *Options) { o.DisableSameBlock = true }},
		{"noMRUCutoff", func(o *Options) { o.DisableMRUCutoff = true }},
	}
	base := Options{MaxLogSets: 5, Assoc: 4, BlockSize: 16}
	bs, err := tr.BlockStream(base.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		opt := base
		m.mod(&opt)
		want := runInstrumented(t, opt, tr)
		got := mustSim(opt)
		if err := got.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, m.name, want, got)
		if want.Counters() != got.Counters() {
			t.Errorf("%s: stream counters %+v, per-access counters %+v",
				m.name, got.Counters(), want.Counters())
		}
	}
}

// TestFastEntryPointsInterleaved mixes Access and AccessRuns on one
// simulator; the shared same-block memo must keep them coherent.
func TestFastEntryPointsInterleaved(t *testing.T) {
	tr := streakyTrace(9_000, 1<<12, 13)
	opt := Options{MaxLogSets: 6, Assoc: 4, BlockSize: 16}
	want := runInstrumented(t, opt, tr)

	third := len(tr) / 3
	mixed := mustSim(opt)
	stream := func(seg trace.Trace) {
		bs, err := seg.BlockStream(opt.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := mixed.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
	}
	stream(tr[:third])
	for _, a := range tr[third : 2*third] {
		mixed.Access(a)
	}
	stream(tr[2*third:])
	assertSameResults(t, "stream+access+stream", want, mixed)
	if got := mixed.Counters().Accesses; got != uint64(len(tr)) {
		t.Errorf("Accesses = %d, want %d", got, len(tr))
	}
}

// TestSimulateStreamRejectsBlockMismatch mirrors the core's guard.
func TestSimulateStreamRejectsBlockMismatch(t *testing.T) {
	bs, err := trace.Trace{{Addr: 0}}.BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSim(Options{MaxLogSets: 3, Assoc: 2, BlockSize: 4})
	if err := s.SimulateStream(bs); err == nil {
		t.Fatal("block-size mismatch accepted")
	}
}

// TestSimulateStreamMatchesSimulate runs the stream path against the
// instrumented reader-draining loop on a uniform random trace.
func TestSimulateStreamMatchesSimulate(t *testing.T) {
	tr := randomTrace(8_000, 1<<12, 21)
	opt := Options{MaxLogSets: 6, Assoc: 4, BlockSize: 8}
	want := mustSim(opt)
	if err := want.Simulate(tr.NewSliceReader()); err != nil {
		t.Fatal(err)
	}
	bs, err := tr.BlockStream(opt.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	got := mustSim(opt)
	if err := got.SimulateStream(bs); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "SimulateStream", want, got)
}

// FuzzFastEquivalence fuzzes the lrutree fast path (whole stream and
// one-run chunks) against the instrumented path.
func FuzzFastEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(2), uint8(4), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(0), uint8(0), uint8(1), uint8(2))
	f.Add([]byte{9, 9, 1, 1, 9, 9, 1, 1, 2, 2}, uint8(3), uint8(1), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, logAssoc, logBlock, maxLog, minLog uint8) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		opt := Options{
			MinLogSets: int(minLog % 4),
			MaxLogSets: int(minLog%4) + int(maxLog%5),
			Assoc:      1 << (logAssoc % 4),
			BlockSize:  1 << (logBlock % 4),
		}
		tr := make(trace.Trace, 0, len(raw)/2+1)
		for i := 0; i+1 < len(raw); i += 2 {
			tr = append(tr, trace.Access{Addr: uint64(raw[i])<<3 | uint64(raw[i+1])&7})
		}
		if len(tr) == 0 {
			return
		}
		inst := mustSim(opt)
		for _, a := range tr {
			inst.Access(a)
		}

		bs, err := tr.BlockStream(opt.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		stream := mustSim(opt)
		if err := stream.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "stream", inst, stream)

		runs := mustSim(opt)
		for i := range bs.IDs {
			runs.AccessRuns(bs.IDs[i:i+1], bs.Runs[i:i+1])
		}
		assertSameResults(t, "one-run chunks", inst, runs)
	})
}

// TestRebindEquivalence: a simulator rebound across block sizes equals
// a fresh one after each step, whether the stream walk or per-access
// Access ran last.
func TestRebindEquivalence(t *testing.T) {
	tr := streakyTrace(15_000, 1<<13, 7)
	blocks := []int{16, 4, 64, 8}
	opt := Options{MinLogSets: 1, MaxLogSets: 6, Assoc: 4, BlockSize: blocks[0]}
	s := mustSim(opt)
	for round, b := range blocks {
		if round > 0 {
			if err := s.Rebind(b); err != nil {
				t.Fatal(err)
			}
		}
		opt.BlockSize = b
		fresh := mustSim(opt)
		for _, sim := range []*Simulator{s, fresh} {
			if round%2 == 0 {
				bs, err := tr.BlockStream(b)
				if err != nil {
					t.Fatal(err)
				}
				if err := sim.SimulateStream(bs); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, a := range tr {
					sim.Access(a)
				}
			}
		}
		assertSameResults(t, fmt.Sprintf("B%d", b), fresh, s)
		if fresh.Counters() != s.Counters() {
			t.Errorf("B%d: counters %+v, want %+v", b, s.Counters(), fresh.Counters())
		}
	}
	if err := s.Rebind(6); err == nil {
		t.Error("Rebind accepted block size 6")
	}
}
