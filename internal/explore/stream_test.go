package explore

import (
	"context"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"dew/internal/cache"
	"dew/internal/store"
)

// TestRunStreamedMatchesMaterialized: the bounded span-pipeline schedule
// must merge bit-identical statistics (and identical stream shapes and
// kind totals) to the materialized schedule, for both policies and with
// the kind channel on and off.
func TestRunStreamedMatchesMaterialized(t *testing.T) {
	space := smallSpace()
	tr := randomTrace(20000, 7)
	for _, policy := range []cache.Policy{cache.FIFO, cache.LRU} {
		for _, kinds := range []bool{false, true} {
			base := Request{Space: space, Source: fromTrace(tr), Workers: 3, Policy: policy, Kinds: kinds}
			mat, err := Run(context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}
			if mat.Streamed || mat.StreamPeakBytes != 0 {
				t.Fatalf("materialized run reported streamed provenance: %+v", mat)
			}
			base.StreamMem = 1 // floor geometry: many spans, maximal boundary coverage
			str, err := Run(context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}
			if !str.Streamed {
				t.Fatal("streamed run did not report Streamed")
			}
			if str.StreamPeakBytes <= 0 {
				t.Fatalf("StreamPeakBytes = %d", str.StreamPeakBytes)
			}
			if !reflect.DeepEqual(str.Stats, mat.Stats) {
				t.Fatalf("policy=%v kinds=%v: streamed stats diverge from materialized", policy, kinds)
			}
			if !reflect.DeepEqual(str.StreamCompression, mat.StreamCompression) {
				t.Fatalf("stream compression differs: %v vs %v", str.StreamCompression, mat.StreamCompression)
			}
			if str.KindTotals != mat.KindTotals {
				t.Fatalf("kind totals differ: %v vs %v", str.KindTotals, mat.KindTotals)
			}
			if str.Passes != mat.Passes || str.Decodes != 1 || str.Folds != mat.Folds {
				t.Fatalf("pass accounting differs: %+v vs %+v", str, mat)
			}
		}
	}
}

// TestRunStreamedSharded: sharded passes run on the span pipeline —
// each span split into a shard partition — at the default budget or an
// explicit StreamMem, and merge the materialized monolithic statistics.
func TestRunStreamedSharded(t *testing.T) {
	tr := randomTrace(12000, 5)
	for _, kinds := range []bool{false, true} {
		base := Request{Space: smallSpace(), Source: fromTrace(tr), Workers: 2, Kinds: kinds}
		mono, err := Run(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		for _, mem := range []int64{0, 1 << 20, 1} {
			req := base
			req.Shards, req.StreamMem = 4, mem
			got, err := Run(context.Background(), req)
			if err != nil {
				t.Fatalf("StreamMem=%d: %v", mem, err)
			}
			if !got.Streamed || got.Shards != 4 || got.Decodes != 1 {
				t.Fatalf("StreamMem=%d: provenance %+v, want a streamed 4-way sharded decode", mem, got)
			}
			if !reflect.DeepEqual(got.Stats, mono.Stats) || !reflect.DeepEqual(got.StreamCompression, mono.StreamCompression) ||
				got.KindTotals != mono.KindTotals {
				t.Fatalf("kinds=%v StreamMem=%d: sharded span replay diverges from the monolithic run", kinds, mem)
			}
		}
	}
}

// TestRunStreamedCachePublish: a cold streamed run publishes every
// pass's result record and no stream, so later runs (streamed or
// materialized) go warm, and the sampled warm check still passes on the
// shared spans.
func TestRunStreamedCachePublish(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := randomTrace(9000, 11)
	sourceID := store.TraceID(tr)
	req := Request{
		Space: smallSpace(), Workers: 2, Kinds: true,
		Source: fromTrace(tr), Cache: st, SourceID: sourceID,
		StreamMem: 1,
	}
	cold, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Streamed || cold.CellsSimulated != cold.Passes {
		t.Fatalf("cold streamed run: %+v", cold)
	}
	records, err := filepath.Glob(filepath.Join(st.Dir(), "*.drs"))
	if err != nil || len(records) != cold.Passes {
		t.Fatalf("streamed run published %d pass records (err %v), want %d", len(records), err, cold.Passes)
	}
	if streams, _ := filepath.Glob(filepath.Join(st.Dir(), "*.dbs")); len(streams) != 0 {
		t.Fatalf("streamed run published %d stream entries, want none", len(streams))
	}

	// Second streamed run: result-tier warm, one sampled pass re-run
	// live on the pipeline's spans.
	var calls atomic.Int32
	req.Source = countingSource(fromTrace(tr), &calls)
	warm, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Streamed || warm.WarmVerified != 1 || warm.CellsCached != warm.Passes {
		t.Fatalf("warm streamed run: %+v", warm)
	}
	if !reflect.DeepEqual(warm.Stats, cold.Stats) {
		t.Fatal("warm streamed stats diverge from cold run")
	}

	// A materialized run over the same cache is served by the streamed
	// run's records; its sampled check pass decodes the trace once.
	req.StreamMem = 0
	req.Source = fromTrace(tr)
	mat, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Streamed {
		t.Fatal("materialized warm run reported Streamed")
	}
	if mat.CellsCached != mat.Passes || mat.WarmVerified != 1 || mat.Decodes != 1 {
		t.Fatalf("materialized run was not served by the streamed publish: %+v", mat)
	}
	if !reflect.DeepEqual(mat.Stats, cold.Stats) {
		t.Fatal("materialized warm stats diverge from streamed cold run")
	}

	// Fully warm (check disabled): no stream work at all, so the run
	// reports no streamed provenance even with a budget set.
	req.StreamMem = 1
	req.NoWarmCheck = true
	var warmCalls atomic.Int32
	req.Source = countingSource(fromTrace(tr), &warmCalls)
	full, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if full.Streamed || full.CellsCached != full.Passes || warmCalls.Load() != 0 {
		t.Fatalf("fully-warm run: %+v (source pulled %d times)", full, warmCalls.Load())
	}
}
