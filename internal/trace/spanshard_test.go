package trace_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dew/internal/cache"
	"dew/internal/engine"
	"dew/internal/refsim"
	"dew/internal/trace"
)

// spanKindRun builds a kind record of total weight w (w ≥ 1) from a
// selector byte: single-kind runs, and a store-led mix so
// no-write-allocate bypasses occur.
func spanKindRun(sel uint8, w uint32) trace.KindRun {
	var kr trace.KindRun
	switch sel % 4 {
	case 0:
		kr.W[trace.DataRead], kr.First = w, trace.DataRead
	case 1:
		kr.W[trace.DataWrite], kr.Lead = w, w
	case 2:
		kr.W[trace.IFetch], kr.First = w, trace.IFetch
	default:
		lead := w / 2
		kr.W[trace.DataWrite], kr.Lead = lead, lead
		kr.W[trace.DataRead], kr.First = w-lead, trace.DataRead
	}
	return kr
}

// spanReplay replays spans through a fresh engine on a one-rung
// span-ladder driver, each span split at shard level log into the
// rung's reused partition — the tools' sharded span loop.
func spanReplay(t *testing.T, name string, spec engine.Spec, spans []*trace.Span, log int) engine.Engine {
	t.Helper()
	e, err := engine.New(name, spec)
	if err != nil {
		t.Fatal(err)
	}
	b := spec.BlockSize
	l, err := engine.NewSpanLadder(b, []int{b}, spans[0].Kinds != nil, log, 0, map[int][]engine.Engine{b: {e}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if err := l.Feed(context.Background(), &s.BlockStream); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e
}

// wholeReplay replays the materialized stream's whole partition once,
// or the stream itself monolithically when log < 0.
func wholeReplay(t *testing.T, name string, spec engine.Spec, bs *trace.BlockStream, log int) engine.Engine {
	t.Helper()
	var ss *trace.ShardStream
	if log >= 0 {
		var err error
		if ss, err = trace.ShardBlockStream(bs, log); err != nil {
			t.Fatal(err)
		}
	}
	e, err := engine.Run(context.Background(), name, spec, bs, ss)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

type refRecord struct {
	stats   refsim.Stats
	traffic refsim.Traffic
}

func refOf(e engine.Engine) refRecord {
	return refRecord{e.(engine.RefStatser).RefStats(), e.(engine.TrafficStatser).RefTraffic()}
}

// checkRefReplays asserts, for every replacement × write × allocate
// combination, that the per-span sharded replay equals the whole
// partition's sharded replay and the monolithic stream replay — and,
// given the per-access trace, the per-access reference simulator.
func checkRefReplays(t *testing.T, label string, bs *trace.BlockStream, spans []*trace.Span, log int, tr trace.Trace) {
	t.Helper()
	for _, pol := range []cache.Policy{cache.FIFO, cache.LRU, cache.Random} {
		for _, wp := range []refsim.WritePolicy{refsim.WriteBack, refsim.WriteThrough} {
			for _, ap := range []refsim.AllocPolicy{refsim.WriteAllocate, refsim.NoWriteAllocate} {
				spec := engine.Spec{MinLogSets: 3, MaxLogSets: 3, Assoc: 2, BlockSize: bs.BlockSize, Policy: pol,
					WriteSim: true, Write: wp, Alloc: ap}
				where := fmt.Sprintf("%s %v/%v/%v", label, pol, wp, ap)
				got := refOf(spanReplay(t, "ref", spec, spans, log))
				if whole := refOf(wholeReplay(t, "ref", spec, bs, log)); got != whole {
					t.Fatalf("%s: per-span sharded replay %+v, whole partition %+v", where, got, whole)
				}
				if mono := refOf(wholeReplay(t, "ref", spec, bs, -1)); got != mono {
					t.Fatalf("%s: per-span sharded replay %+v, monolithic %+v", where, got, mono)
				}
				if tr == nil {
					continue
				}
				sim, err := refsim.NewSim(refsim.Options{Config: cache.Config{Sets: 8, Assoc: 2, BlockSize: bs.BlockSize},
					Replacement: pol, Write: wp, Alloc: ap})
				if err != nil {
					t.Fatal(err)
				}
				stats, err := sim.Simulate(tr.NewSliceReader())
				if err != nil {
					t.Fatal(err)
				}
				if want := (refRecord{stats, sim.Traffic()}); got != want {
					t.Fatalf("%s: per-span sharded replay %+v, per-access %+v", where, got, want)
				}
			}
		}
	}
	// The multi-configuration DEW pass, kind-free.
	spec := engine.Spec{MinLogSets: 0, MaxLogSets: 4, Assoc: 2, BlockSize: bs.BlockSize, Policy: cache.FIFO}
	free := *bs
	free.Kinds = nil
	freeSpans := trace.SplitSpans(&free, spans[0].Len())
	got := spanReplay(t, "dew", spec, freeSpans, log).Results()
	want := wholeReplay(t, "dew", spec, &free, -1).Results()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: per-span sharded DEW pass %v, monolithic %v", label, got, want)
	}
}

// FuzzIngestShards is the oracle for sharded span replay, the only way
// a sharded pass consumes a trace: fuzzer-chosen traces and crafted
// weighted streams are cut into spans, every span is split into a
// reused shard partition and replayed with SimulateSharded, and the
// accumulated statistics must equal the replay of ShardBlockStream over
// the whole stream, the monolithic replay, and — for decoded traces —
// per-access reference simulation, for every replacement, write and
// allocation policy. Span cuts separate runs the whole-stream fill
// would merge, and the weighted path's near-MaxUint32 weights make the
// fill rule split merges differently on either side of a cut; neither
// may be observable.
func FuzzIngestShards(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 200, 200, 200, 7}, uint8(2), uint8(3), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9}, uint8(0), uint8(1), uint8(0))
	f.Add([]byte{255, 254, 253, 1, 1, 1, 40, 40}, uint8(4), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, logIn, spanIn, blockIn uint8) {
		log := int(logIn % 4) // the reference configurations have 2^3 sets
		spanRuns := int(spanIn%16) + 1
		block := 1 << (blockIn % 5)

		// Each byte is an address step, high values repeating the
		// previous block to build runs; kinds cycle so runs mix them.
		tr := make(trace.Trace, 0, len(data))
		addr := uint64(0)
		for j, b := range data {
			k := trace.Kind((uint64(b) + uint64(j)) % 3)
			if b >= 192 {
				for i := 0; i < int(b-191); i++ {
					tr = append(tr, trace.Access{Addr: addr, Kind: k})
				}
				continue
			}
			addr += uint64(b)
			tr = append(tr, trace.Access{Addr: addr, Kind: k})
		}
		bs, err := trace.MaterializeBlockStreamWithKinds(tr.NewSliceReader(), block)
		if err != nil {
			t.Fatal(err)
		}
		if bs.Len() > 0 {
			checkRefReplays(t, "decoded", bs, trace.SplitSpans(bs, spanRuns), log, tr)
		}

		// Weighted path: byte pairs become (id, weight) runs, weights
		// pushed up near the uint32 limit, with crafted kind records.
		parent := &trace.BlockStream{BlockSize: block, Kinds: []trace.KindRun{}}
		for i := 0; i+1 < len(data); i += 2 {
			w := uint32(data[i+1]%128) + 1
			if data[i+1] >= 128 {
				w = math.MaxUint32 - uint32(data[i+1]-128)
			}
			parent.IDs = append(parent.IDs, uint64(data[i]%32))
			parent.Runs = append(parent.Runs, w)
			parent.Kinds = append(parent.Kinds, spanKindRun(data[i]/32, w))
			parent.Accesses += uint64(w)
		}
		if parent.Len() > 0 {
			checkRefReplays(t, "weighted", parent, trace.SplitSpans(parent, spanRuns), log, nil)
		}
	})
}
