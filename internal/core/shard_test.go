package core

import (
	"context"
	"fmt"
	"testing"

	"dew/internal/trace"
	"dew/internal/workload"
)

// mustShard partitions a stream at the given shard level.
func mustShard(t testing.TB, bs *trace.BlockStream, log int) *trace.ShardStream {
	t.Helper()
	ss, err := trace.ShardBlockStream(bs, log)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// assertShardedResults fails unless the sharded pass agrees bit for bit
// with the instrumented monolithic simulator on every configuration.
func assertShardedResults(t *testing.T, label string, want *Simulator, got *Sharded) {
	t.Helper()
	wr, gr := want.Results(), got.Results()
	if len(wr) != len(gr) {
		t.Fatalf("%s: %d results vs %d", label, len(wr), len(gr))
	}
	for i := range wr {
		if wr[i] != gr[i] {
			t.Errorf("%s: result %d: monolithic %+v, sharded %+v", label, i, wr[i], gr[i])
		}
	}
	if got.Accesses() != want.Counters().Accesses {
		t.Errorf("%s: sharded Accesses = %d, want %d", label, got.Accesses(), want.Counters().Accesses)
	}
}

// TestShardedEquivalence proves the sharded pass bit-identical to the
// instrumented monolithic pass across every shard
// level of each shape — including S=0 (one tree, no shallow pass),
// S=MaxLogSets (every level above the leaf forest replayed shallow),
// and MinLogSets>0 forests where the shard level falls below, inside
// and above the simulated range's start.
func TestShardedEquivalence(t *testing.T) {
	apps := []workload.App{workload.CJPEG, workload.MPEG2Dec}
	shapes := []Options{
		{MaxLogSets: 6, Assoc: 4, BlockSize: 16},
		{MaxLogSets: 5, Assoc: 8, BlockSize: 4},
		{MinLogSets: 2, MaxLogSets: 7, Assoc: 2, BlockSize: 32},
		{MinLogSets: 3, MaxLogSets: 6, Assoc: 4, BlockSize: 64},
		{MaxLogSets: 5, Assoc: 1, BlockSize: 8},
		{MinLogSets: 1, MaxLogSets: 5, Assoc: 8, BlockSize: 32},
	}
	for _, app := range apps {
		tr := workload.Take(app.Generator(7), 30_000)
		for _, opt := range shapes {
			bs := mustStream(t, tr, opt.BlockSize)
			inst := runInstrumented(t, opt, tr)
			for log := 0; log <= opt.MaxLogSets; log++ {
				label := fmt.Sprintf("%s/min%d/max%d/A%d/B%d/S%d",
					app.Name, opt.MinLogSets, opt.MaxLogSets, opt.Assoc, opt.BlockSize, log)
				ss := mustShard(t, bs, log)
				sh, err := SimulateSharded(context.Background(), opt, ss, 4)
				if err != nil {
					t.Fatal(err)
				}
				assertShardedResults(t, label, inst, sh)
			}
		}
	}
}

// TestShardedMidRunBoundaries feeds each tree its substream in chunks
// cut through the middle of runs (the boundary every chunked consumer
// must tolerate) and checks the stitched pass still matches the
// monolithic one — proving the per-tree replay inherits AccessRuns'
// mid-run soundness.
func TestShardedMidRunBoundaries(t *testing.T) {
	tr := workload.Take(workload.G721Enc.Generator(3), 20_000)
	for _, opt := range []Options{
		{MaxLogSets: 6, Assoc: 4, BlockSize: 16},
		{MinLogSets: 1, MaxLogSets: 6, Assoc: 4, BlockSize: 16},
	} {
		const log = 2
		bs := mustStream(t, tr, opt.BlockSize)
		ss := mustShard(t, bs, log)
		want := runInstrumented(t, opt, tr)

		sh, err := NewSharded(opt, log, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Replay the shallow pass whole, but hand every tree its
		// substream in weight-split halves: each second half starts
		// mid-run and must fold into the first.
		if sh.shallow != nil {
			if err := sh.shallow.SimulateStream(bs); err != nil {
				t.Fatal(err)
			}
		}
		for t2 := range sh.trees {
			sub := &ss.Shards[t2]
			var ids []uint64
			var runs []uint32
			for i, id := range sub.IDs {
				w := sub.Runs[i]
				if w > 1 {
					ids = append(ids, id, id)
					runs = append(runs, w/2, w-w/2)
				} else {
					ids = append(ids, id)
					runs = append(runs, w)
				}
			}
			sh.trees[t2].AccessRuns(ids, runs)
		}
		// Stitch by rerunning the public path on a fresh pass and
		// comparing the hand-fed simulators' tables against it.
		pub, err := SimulateSharded(context.Background(), opt, ss, 2)
		if err != nil {
			t.Fatal(err)
		}
		assertShardedResults(t, fmt.Sprintf("public/min%d", opt.MinLogSets), want, pub)
		for t2 := range sh.trees {
			a, b := sh.trees[t2], pub.trees[t2]
			for l := range a.missA {
				if a.missA[l] != b.missA[l] || a.missDM[l] != b.missDM[l] {
					t.Errorf("min%d: tree %d level %d: mid-run split (%d,%d) vs whole (%d,%d)",
						opt.MinLogSets, t2, l, a.missA[l], a.missDM[l], b.missA[l], b.missDM[l])
				}
			}
		}
	}
}

// TestShardedReset reuses one sharded pass across repeated replays;
// every replay must reproduce the first's results exactly.
func TestShardedReset(t *testing.T) {
	tr := workload.Take(workload.DJPEG.Generator(5), 15_000)
	opt := Options{MaxLogSets: 6, Assoc: 4, BlockSize: 16}
	bs := mustStream(t, tr, opt.BlockSize)
	ss := mustShard(t, bs, 3)
	sh, err := SimulateSharded(context.Background(), opt, ss, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := sh.Results()
	for i := 0; i < 3; i++ {
		sh.Reset()
		if sh.Accesses() != 0 {
			t.Fatal("Reset left a nonzero access count")
		}
		if err := sh.SimulateStream(context.Background(), ss); err != nil {
			t.Fatal(err)
		}
		for j, r := range sh.Results() {
			if r != want[j] {
				t.Fatalf("replay %d: result %d = %+v, want %+v", i, j, r, want[j])
			}
		}
	}
}

// TestShardedRepeatedReplay replays the same shard stream twice on one
// pass without Reset — a chunked replay, which the monolithic entry
// points also support — and demands agreement with the monolithic
// simulator fed the stream twice.
func TestShardedRepeatedReplay(t *testing.T) {
	tr := workload.Take(workload.CJPEG.Generator(8), 10_000)
	for _, opt := range []Options{
		{MaxLogSets: 6, Assoc: 4, BlockSize: 16},
		{MinLogSets: 4, MaxLogSets: 6, Assoc: 4, BlockSize: 16}, // S ≤ MinLogSets: no shallow pass
		{MaxLogSets: 5, Assoc: 2, BlockSize: 8},
	} {
		bs := mustStream(t, tr, opt.BlockSize)
		ss := mustShard(t, bs, 2)
		mono := MustNew(opt)
		sh, err := NewSharded(opt, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			if err := mono.SimulateStream(bs); err != nil {
				t.Fatal(err)
			}
			if err := sh.SimulateStream(context.Background(), ss); err != nil {
				t.Fatal(err)
			}
			wr, gr := mono.Results(), sh.Results()
			for i := range wr {
				if wr[i] != gr[i] {
					t.Errorf("min%d round %d result %d: monolithic %+v, sharded %+v",
						opt.MinLogSets, round, i, wr[i], gr[i])
				}
			}
		}
	}
}

// TestShardedRejects covers the constructor's and replayer's guards.
func TestShardedRejects(t *testing.T) {
	tr := workload.Take(workload.CJPEG.Generator(1), 500)
	opt := Options{MaxLogSets: 4, Assoc: 2, BlockSize: 16}
	bs := mustStream(t, tr, 16)
	if _, err := NewSharded(opt, 5, 0); err == nil {
		t.Error("shard level above MaxLogSets accepted")
	}
	if _, err := NewSharded(opt, -1, 0); err == nil {
		t.Error("negative shard level accepted")
	}
	inst := opt
	inst.Instrument = true
	if _, err := NewSharded(inst, 2, 0); err == nil {
		t.Error("instrumented sharded pass accepted")
	}
	abl := opt
	abl.DisableMRA = true
	if _, err := NewSharded(abl, 2, 0); err == nil {
		t.Error("ablated sharded pass accepted")
	}
	sh, err := NewSharded(opt, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.SimulateStream(context.Background(), mustShard(t, bs, 3)); err == nil {
		t.Error("shard-level mismatch accepted")
	}
	wrongBlock := mustStream(t, tr, 4)
	if err := sh.SimulateStream(context.Background(), mustShard(t, wrongBlock, 2)); err == nil {
		t.Error("block-size mismatch accepted")
	}
}

// FuzzShardedEquivalence fuzzes the sharded pass against the
// instrumented monolithic path: arbitrary streams, 1 to 64 ways,
// arbitrary shard levels and forest shapes.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(2), uint8(4), uint8(0), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(0), uint8(0), uint8(1), uint8(2), uint8(0))
	f.Add([]byte{9, 9, 1, 1, 9, 9, 1, 1, 2, 2}, uint8(3), uint8(1), uint8(3), uint8(1), uint8(3))
	f.Add([]byte{255, 0, 255, 1, 255, 2, 255, 3}, uint8(1), uint8(3), uint8(2), uint8(3), uint8(2))
	f.Add(wideSeed(23, 200), uint8(4), uint8(0), uint8(1), uint8(0), uint8(1))
	f.Add(wideSeed(79, 600), uint8(6), uint8(0), uint8(1), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, logAssoc, logBlock, maxLog, minLog, shard uint8) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		opt := Options{
			MinLogSets: int(minLog % 4),
			MaxLogSets: int(minLog%4) + int(maxLog%5),
			Assoc:      1 << (logAssoc % 7),
			BlockSize:  1 << (logBlock % 4),
		}
		log := int(shard) % (opt.MaxLogSets + 1)
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
		ss, err := trace.ShardBlockStream(bs, log)
		if err != nil {
			t.Fatal(err)
		}
		inst := MustNew(opt)
		for _, a := range tr {
			inst.Access(a)
		}
		sh, err := SimulateSharded(context.Background(), opt, ss, 3)
		if err != nil {
			t.Fatal(err)
		}
		wr, gr := inst.Results(), sh.Results()
		for i := range wr {
			if wr[i] != gr[i] {
				t.Fatalf("S=%d result %d: monolithic %+v, sharded %+v", log, i, wr[i], gr[i])
			}
		}
		if sh.Accesses() != uint64(len(tr)) {
			t.Fatalf("Accesses = %d, want %d", sh.Accesses(), len(tr))
		}
	})
}
