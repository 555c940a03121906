package core

import (
	"fmt"
	"testing"

	"dew/internal/cache"
	"dew/internal/trace"
	"dew/internal/workload"
)

// simulateBatch feeds one batch of raw accesses to the fast path: the
// batch is folded into a block stream of its own and replayed, so a run
// cut by the batch boundary resumes mid-run in the next batch.
func simulateBatch(t testing.TB, s *Simulator, batch trace.Trace) {
	t.Helper()
	if err := s.SimulateStream(mustStream(t, batch, s.opt.BlockSize)); err != nil {
		t.Fatal(err)
	}
}

// simulateBatches feeds tr to the fast path in batches of size accesses.
func simulateBatches(t testing.TB, s *Simulator, tr trace.Trace, size int) {
	t.Helper()
	for i := 0; i < len(tr); i += size {
		simulateBatch(t, s, tr[i:min(i+size, len(tr))])
	}
}

// TestAccessBatchEquivalence checks the counter-free fast path, fed the
// trace in reader-sized batches, against the instrumented path —
// including each single-property ablation of the instrumented path,
// which must not change results — across both policies and several pass
// shapes.
func TestAccessBatchEquivalence(t *testing.T) {
	ablations := []struct {
		name string
		mod  func(*Options)
	}{
		{"full", func(*Options) {}},
		{"noMRA", func(o *Options) { o.DisableMRA = true }},
		{"noWave", func(o *Options) { o.DisableWave = true }},
		{"noMRE", func(o *Options) { o.DisableMRE = true }},
	}
	for _, app := range []workload.App{workload.CJPEG, workload.MPEG2Dec} {
		tr := workload.Take(app.Generator(7), 30_000)
		for _, opt := range streamShapes {
			fast := MustNew(opt)
			simulateBatches(t, fast, tr, trace.DefaultBatchSize)
			if err := fast.CheckInvariants(); err != nil {
				t.Fatalf("%s %+v: fast-path invariants: %v", app.Name, opt, err)
			}
			if got := fast.Counters().Accesses; got != uint64(len(tr)) {
				t.Errorf("%s %+v: fast path Accesses = %d, want %d", app.Name, opt, got, len(tr))
			}
			for _, ab := range ablations {
				abOpt := opt
				ab.mod(&abOpt)
				label := fmt.Sprintf("%s/%s/min%d/A%d/B%d/%v", app.Name, ab.name, opt.MinLogSets, opt.Assoc, opt.BlockSize, opt.Policy)
				assertSameResults(t, label, runInstrumented(t, abOpt, tr), fast)
			}
		}
	}
}

// TestAccessBatchChunking confirms that how a trace is split into
// batches of raw accesses cannot affect results, and that Instrument
// routes batched replay back onto the counted path.
func TestAccessBatchChunking(t *testing.T) {
	tr := workload.Take(workload.G721Enc.Generator(3), 20_000)
	opt := Options{MaxLogSets: 6, Assoc: 4, BlockSize: 16}

	whole := MustNew(opt)
	simulateBatch(t, whole, tr)

	for _, chunk := range []int{1, 7, 1024, trace.DefaultBatchSize} {
		split := MustNew(opt)
		simulateBatches(t, split, tr, chunk)
		assertSameResults(t, fmt.Sprintf("chunk=%d", chunk), whole, split)
	}

	instOpt := opt
	instOpt.Instrument = true
	inst := MustNew(instOpt)
	simulateBatches(t, inst, tr, 1024)
	want := runInstrumented(t, opt, tr)
	assertSameResults(t, "instrumented batch", want, inst)
	if inst.Counters() != want.Counters() {
		t.Errorf("Instrument: batched counters %+v, Access counters %+v",
			inst.Counters(), want.Counters())
	}
}

// TestAccessBatchInterleaved mixes batched replay and Access on one
// Simulator: Access must keep the fast path's repeated-block memo sound,
// so an interleaved sequence matches the pure single-access sequence.
func TestAccessBatchInterleaved(t *testing.T) {
	opt := Options{MaxLogSets: 2, Assoc: 2, BlockSize: 4}
	a := trace.Access{Addr: 0}
	b := trace.Access{Addr: 4}

	mixed := MustNew(opt)
	simulateBatch(t, mixed, trace.Trace{a})
	mixed.Access(b)
	simulateBatch(t, mixed, trace.Trace{a})
	assertSameResults(t, "interleaved", runInstrumented(t, opt, trace.Trace{a, b, a}), mixed)

	// And the long way around: alternate entry points every 100 accesses
	// over a real trace.
	tr := workload.Take(workload.CJPEG.Generator(11), 10_000)
	opt = Options{MaxLogSets: 6, Assoc: 4, BlockSize: 16}
	alt := MustNew(opt)
	for i := 0; i < len(tr); i += 100 {
		part := tr[i:min(i+100, len(tr))]
		if (i/100)%2 == 0 {
			simulateBatch(t, alt, part)
		} else {
			for _, acc := range part {
				alt.Access(acc)
			}
		}
	}
	assertSameResults(t, "alternating", runInstrumented(t, opt, tr), alt)
}

// FuzzBatchEquivalence fuzzes batched replay against the instrumented
// path: identical results for arbitrary folded address streams under
// both policies, with the stream cut into two batches at a point the
// input chooses.
func FuzzBatchEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(2), uint8(4), false)
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(0), uint8(0), uint8(1), true)
	f.Add([]byte{9, 9, 1, 1, 9, 9, 1, 1, 2, 2}, uint8(3), uint8(1), uint8(3), false)
	f.Add([]byte{255, 0, 255, 1, 255, 2, 255, 3}, uint8(1), uint8(3), uint8(2), true)
	f.Fuzz(func(t *testing.T, raw []byte, logAssoc, logBlock, maxLog uint8, lru bool) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		opt := Options{
			MaxLogSets: int(maxLog%5) + 1,
			Assoc:      1 << (logAssoc % 4),
			BlockSize:  1 << (logBlock % 4),
		}
		if lru {
			opt.Policy = cache.LRU
		}
		tr := make(trace.Trace, 0, len(raw)/2+1)
		for i := 0; i+1 < len(raw); i += 2 {
			tr = append(tr, trace.Access{Addr: uint64(raw[i])<<3 | uint64(raw[i+1])&7})
		}
		if len(tr) == 0 {
			return
		}
		inst := MustNew(opt)
		for _, a := range tr {
			inst.Access(a)
		}
		fast := MustNew(opt)
		cut := int(raw[0]) % (len(tr) + 1)
		simulateBatch(t, fast, tr[:cut])
		simulateBatch(t, fast, tr[cut:])
		if err := fast.CheckInvariants(); err != nil {
			t.Fatalf("fast-path invariants: %v", err)
		}
		wr, gr := inst.Results(), fast.Results()
		for i := range wr {
			if wr[i] != gr[i] {
				t.Fatalf("result %d: instrumented %+v, batched %+v", i, wr[i], gr[i])
			}
		}
	})
}
