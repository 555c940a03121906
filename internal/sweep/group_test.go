package sweep

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dew/internal/cache"
	"dew/internal/engine"
	"dew/internal/workload"
)

// groupParams is one stream group: one trace at one block size, the
// three cells of Table 3's 1&4, 1&8 and 1&16 columns.
func groupParams(maxLog int) []Params {
	var params []Params
	for _, assoc := range []int{4, 8, 16} {
		params = append(params, Params{
			App: workload.G721Enc, Seed: 4, Requests: 6000,
			BlockSize: 16, Assoc: assoc, MaxLogSets: maxLog,
		})
	}
	return params
}

// passKey names one reference replay: a configuration, monolithic or
// sharded.
type passKey struct {
	cfg     cache.Config
	sharded bool
}

// livePasses counts the reference replays a runner runs live.
type livePasses struct {
	mu sync.Mutex
	n  map[passKey]int
}

func (l *livePasses) hook(cfg cache.Config, sharded bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == nil {
		l.n = map[passKey]int{}
	}
	l.n[passKey{cfg, sharded}]++
}

// TestRunCellsSharesDirectMappedPasses runs one stream group's three
// cells as one batch, serially and across two workers, and as three
// one-cell batches, with and without sharded passes. Within a batch
// every reference configuration — the direct-mapped ones the three DEW
// passes share included — must be replayed live exactly once (and once
// more sharded when sharding is on); every cell must still verify all
// of its configurations; and every field but the wall times must be
// identical across the five ways of running it.
func TestRunCellsSharesDirectMappedPasses(t *testing.T) {
	const maxLog = 5
	const levels = maxLog + 1
	params := groupParams(maxLog)
	for _, shards := range []int{0, 2} {
		run := func(label string, workers int, batch []Params) []Cell {
			t.Helper()
			var live livePasses
			r := Runner{Workers: workers, Shards: shards, onRefPass: live.hook}
			cells, err := r.RunCells(context.Background(), batch)
			if err != nil {
				t.Fatalf("shards %d, %s: %v", shards, label, err)
			}
			kinds := 1
			if shards > 1 {
				kinds = 2
			}
			dm := 0
			for k, n := range live.n {
				if n != 1 {
					t.Errorf("shards %d, %s: %v (sharded %v) replayed %d times, want once", shards, label, k.cfg, k.sharded, n)
				}
				if k.cfg.Assoc == 1 {
					dm++
				}
			}
			if want := kinds * levels; dm != want {
				t.Errorf("shards %d, %s: %d live direct-mapped passes, want %d (one per set count)", shards, label, dm, want)
			}
			if want := kinds * levels * (1 + len(batch)); len(live.n) != want {
				t.Errorf("shards %d, %s: %d live reference passes, want %d", shards, label, len(live.n), want)
			}
			for _, c := range cells {
				if c.Verified != 2*levels {
					t.Errorf("shards %d, %s, %v: Verified = %d, want %d", shards, label, c.Params, c.Verified, 2*levels)
				}
			}
			return cells
		}
		serial := run("workers 1", 1, params)
		parallel := run("workers 2", 2, params)
		for i, p := range params {
			single := run("one-cell batch "+p.String(), 1, []Params{p})[0]
			for label, c := range map[string]Cell{"workers 2": parallel[i], "one-cell batch": single} {
				if a, b := untimed(serial[i]), untimed(c); !reflect.DeepEqual(a, b) {
					t.Errorf("shards %d, %v: workers 1 and %s differ:\n%+v\n%+v", shards, p, label, a, b)
				}
			}
		}
	}
}

// TestKitFirstPassAllocatesNothing times the first DEW pass on a fresh
// kit: the kit built and wrote its arenas when it was made, so the
// timed pass allocates nothing, and the first reference pass allocates
// less than its arenas would take (only the compulsory-miss set, which
// depends on the stream).
func TestKitFirstPassAllocatesNothing(t *testing.T) {
	const maxLog, assoc = 10, 8
	tr := workload.Take(workload.CJPEG.Generator(1), 5000)
	bs, err := tr.BlockStream(16)
	if err != nil {
		t.Fatal(err)
	}
	k := newKit(maxLog, assoc)
	var before, after runtime.MemStats

	spec := engine.Spec{MaxLogSets: maxLog, Assoc: 4, BlockSize: 16, Policy: cache.FIFO}
	runtime.ReadMemStats(&before)
	e, _, err := engine.TimedRun(context.Background(), k.dew, "dew", spec, bs, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if e != k.dew {
		t.Fatal("the first DEW pass built a new engine instead of rebinding the kit's")
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("first DEW pass on a fresh kit made %d allocations (%d bytes), want 0", n, after.TotalAlloc-before.TotalAlloc)
	}

	refSpec := engine.Spec{MinLogSets: maxLog, MaxLogSets: maxLog, Assoc: 1, BlockSize: 16, Policy: cache.FIFO}
	runtime.ReadMemStats(&before)
	e, _, err = engine.TimedRun(context.Background(), k.ref, "ref", refSpec, bs, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if e != k.ref {
		t.Fatal("the first reference pass built a new engine instead of rebinding the kit's")
	}
	if got, arenas := after.TotalAlloc-before.TotalAlloc, uint64(8*assoc<<maxLog); got >= arenas {
		t.Errorf("first reference pass on a fresh kit allocated %d bytes, its tag arena alone is %d", got, arenas)
	}
}
