package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"dew/bench/span"
	"dew/internal/cache"
	"dew/internal/energy"
	"dew/internal/engine"
	"dew/internal/explore"
	"dew/internal/refsim"
	"dew/internal/report"
	"dew/internal/store"
	"dew/internal/sweep"
	"dew/internal/trace"
	"dew/internal/workload"
)

// Each flow mirrors the tool path its workload drives (internal/cli),
// with the same defaults, and renders the same normalized output so
// the harness can check the traced run did the tool's work. Spans
// opened on the flow's own goroutine measure allocation; spans inside
// a layer's worker pool do not.

// exploreFlow traces `explore -trace FILE -workers N -csv` over the
// paper's 525-configuration space. explore.Run is called as is: the
// trace reader and the engine are wrapped so decode batches and pass
// replays become spans, and the rest of Run — run compression, fold
// ladder, scheduling and merge — is explore's own time.
func exploreFlow(ctx context.Context, rec *span.Recorder, _ string, args []string) (*span.Run, error) {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	path := fs.String("trace", "", "")
	workers := fs.Int("workers", 0, "")
	fs.Bool("quiet", false, "")
	fs.Bool("csv", false, "")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	root := rec.Begin("cli.run", -1, true)
	run := rec.Begin("explore.run", root, true)
	reader := &timedReader{rec: rec, parent: run}
	engine.Register("bench-dew", "dew with replay spans", func(s engine.Spec) (engine.Engine, error) {
		e, err := engine.New("dew", s)
		if err != nil {
			return nil, err
		}
		return &timedEngine{Engine: e, rec: rec, parent: run}, nil
	})
	res, err := explore.Run(ctx, explore.Request{
		Space:   cache.PaperSpace(),
		Source:  func() trace.Reader { return reader.open(*path) },
		Workers: *workers,
		Engine:  "bench-dew",
	})
	rec.End(run)
	if err == nil {
		err = reader.err
	}
	if err != nil {
		return nil, err
	}

	rank := rec.Begin("cli.rank", root, true)
	scored := energy.DefaultModel().Rank(res.Stats)
	rec.End(rank)
	render := rec.Begin("cli.render", root, true)
	var out strings.Builder
	tbl := report.NewTable("", "sets", "assoc", "block", "sizeBytes", "accesses", "misses", "missRate", "energyPJ")
	for _, s := range scored {
		tbl.AddRow(s.Config.Sets, s.Config.Assoc, s.Config.BlockSize, s.Config.SizeBytes(),
			s.Stats.Accesses, s.Stats.Misses,
			fmt.Sprintf("%.6f", s.Stats.MissRate()), fmt.Sprintf("%.1f", s.Energy))
	}
	if err := tbl.RenderCSV(&out); err != nil {
		return nil, err
	}
	rec.End(render)
	rec.End(root)

	finest := slices.Min(cache.PaperSpace().BlockSizes())
	return &span.Run{Spans: rec.Spans(), Output: out.String(), Counts: map[string]float64{
		"explore.decodes":        float64(res.Decodes),
		"explore.folds":          float64(res.Folds),
		"explore.passes":         float64(res.Passes),
		"engine.passes":          float64(res.Passes),
		"engine.workers":         float64(*workers),
		"engine.access_passes":   float64(reader.accesses) * float64(res.Passes),
		"trace.decoded_accesses": float64(reader.accesses),
		"trace.decode_ns":        float64(reader.busy),
		"trace.addr_per_run":     res.StreamCompression[finest],
	}}, nil
}

// streamedFlow traces `dewsim -trace FILE -blocks L -stream-mem M`: the
// bounded span pipeline decodes in the background while this goroutine
// waits for each span, folds it down the block ladder and replays every
// rung — the loop dewsim runs.
func streamedFlow(ctx context.Context, rec *span.Recorder, _ string, args []string) (*span.Run, error) {
	d, err := parseDewsim(args)
	if err != nil {
		return nil, err
	}

	root := rec.Begin("cli.run", -1, true)
	engs := make(map[int]engine.Engine, len(d.ladder))
	for _, b := range d.ladder {
		if engs[b], err = engine.New("dew", d.spec(b)); err != nil {
			return nil, err
		}
	}
	folder, err := trace.NewLadderFolder(d.ladder[0], d.ladder, false)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	open := rec.Begin("trace.open", root, true)
	pl, err := trace.StreamFileSpans(ctx, d.path, d.ladder[0], trace.SpanOptions{MemBytes: d.streamMem})
	rec.End(open)
	if err != nil {
		return nil, err
	}
	defer pl.Close()

	fold := -1
	visit := func(b int, s *trace.BlockStream) error {
		id := rec.Begin("engine.simulate", fold, true)
		defer rec.End(id)
		return engs[b].SimulateStream(s)
	}
	var runs uint64
	var decoded time.Duration
	for {
		wait := rec.Begin("trace.span_wait", root, true)
		s, ok := <-pl.Spans()
		rec.End(wait)
		if !ok {
			decoded = time.Since(start)
			break
		}
		runs += uint64(s.Len())
		fold = rec.Begin("trace.fold", root, true)
		err := folder.Feed(&s.BlockStream, visit)
		rec.End(fold)
		if err != nil {
			return nil, err
		}
	}
	if err := pl.Err(); err != nil {
		return nil, err
	}
	fold = rec.Begin("trace.fold", root, true)
	err = folder.Flush(visit)
	rec.End(fold)
	if err != nil {
		return nil, err
	}
	var results []engine.Result
	for _, b := range d.ladder {
		results = append(results, engs[b].Results()...)
	}
	out, err := renderDewsim(rec, root, results)
	if err != nil {
		return nil, err
	}
	rec.End(root)

	accesses := float64(pl.EmittedAccesses())
	return &span.Run{Spans: rec.Spans(), Output: out, Counts: map[string]float64{
		"engine.passes":              float64(len(d.ladder)),
		"engine.workers":             1,
		"engine.access_passes":       accesses * float64(len(d.ladder)),
		"trace.decoded_accesses":     accesses,
		"trace.decode_ns":            float64(decoded),
		"trace.addr_per_run":         accesses / float64(runs),
		"trace.spans":                float64(pl.EmittedSpans()),
		"trace.resident_bound_bytes": float64(pl.ResidentBound()),
	}}, nil
}

// shardedFlow traces `dewsim -trace FILE -blocks L -shards N`: one
// chunk-parallel ingest straight into a shard partition at the finest
// rung, a fold ladder, re-sharding of the coarser rungs, then one
// sharded replay per rung.
func shardedFlow(ctx context.Context, rec *span.Recorder, _ string, args []string) (*span.Run, error) {
	d, err := parseDewsim(args)
	if err != nil {
		return nil, err
	}
	log := trace.ShardLog(d.shards, d.maxLog)

	root := rec.Begin("cli.run", -1, true)
	ingest := rec.Begin("trace.ingest", root, true)
	ss, err := trace.IngestFileShards(ctx, d.path, d.ladder[0], log, 0)
	rec.End(ingest)
	if err != nil {
		return nil, err
	}
	fold := rec.Begin("trace.fold", root, true)
	ladder, err := trace.FoldLadder(ss.Source, d.ladder)
	rec.End(fold)
	if err != nil {
		return nil, err
	}
	shard := rec.Begin("trace.shard", root, true)
	shards := map[int]*trace.ShardStream{d.ladder[0]: ss}
	for _, b := range d.ladder[1:] {
		if shards[b], err = trace.ShardBlockStream(ladder[b], log); err != nil {
			return nil, err
		}
	}
	rec.End(shard)
	var results []engine.Result
	for _, b := range d.ladder {
		sim := rec.Begin("engine.simulate", root, true)
		e, err := engine.Run(ctx, "dew", d.spec(b), ladder[b], shards[b])
		rec.End(sim)
		if err != nil {
			return nil, err
		}
		results = append(results, e.Results()...)
	}
	out, err := renderDewsim(rec, root, results)
	if err != nil {
		return nil, err
	}
	rec.End(root)

	accesses := float64(ss.Accesses())
	sharded := 0
	if ss.NumShards() > 1 {
		sharded = len(d.ladder)
	}
	return &span.Run{Spans: rec.Spans(), Output: out, Counts: map[string]float64{
		"engine.passes":           float64(len(d.ladder)),
		"engine.workers":          1,
		"engine.access_passes":    accesses * float64(len(d.ladder)),
		"engine.sharded_passes":   float64(sharded),
		"trace.decoded_accesses":  accesses,
		"trace.decode_ns":         float64(rec.Duration(ingest)),
		"trace.addr_per_run":      accesses / float64(ss.Source.Len()),
		"trace.addr_per_shardrun": accesses / float64(ss.Runs()),
	}}, nil
}

// refsimFlow traces `refsim -trace FILE ... -write W -alloc A -shards N`:
// a kind-preserving chunk-parallel ingest into set-substreams, then the
// sharded write-policy reference replay.
func refsimFlow(ctx context.Context, rec *span.Recorder, _ string, args []string) (*span.Run, error) {
	fs := flag.NewFlagSet("refsim", flag.ContinueOnError)
	path := fs.String("trace", "", "")
	sets := fs.Int("sets", 256, "")
	assoc := fs.Int("assoc", 4, "")
	block := fs.Int("block", 32, "")
	wp := fs.String("write", "write-back", "")
	alloc := fs.String("alloc", "write-allocate", "")
	shards := fs.Int("shards", 1, "")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg, err := cache.NewConfig(*sets, *assoc, *block)
	if err != nil {
		return nil, err
	}
	logSets := bits.Len(uint(cfg.Sets)) - 1
	spec := engine.Spec{
		MinLogSets: logSets, MaxLogSets: logSets,
		Assoc: cfg.Assoc, BlockSize: cfg.BlockSize, Policy: cache.FIFO,
		WriteSim: true, StoreBytes: 4,
	}
	if spec.Write, spec.Alloc, err = parsePolicies(*wp, *alloc); err != nil {
		return nil, err
	}

	root := rec.Begin("cli.run", -1, true)
	ingest := rec.Begin("trace.ingest", root, true)
	ss, err := trace.IngestFileShardsWithKinds(ctx, *path, cfg.BlockSize, trace.ShardLog(*shards, logSets), 0)
	rec.End(ingest)
	if err != nil {
		return nil, err
	}
	sim := rec.Begin("refsim.simulate", root, true)
	e, err := engine.Run(ctx, "ref", spec, ss.Source, ss)
	rec.End(sim)
	if err != nil {
		return nil, err
	}
	render := rec.Begin("cli.render", root, true)
	var out strings.Builder
	fmt.Fprintf(&out, "config:            %v, %v replacement, %v, %v\n", cfg, cache.FIFO, spec.Write, spec.Alloc)
	printRefStats(&out, e.(engine.RefStatser).RefStats(), e.(engine.TrafficStatser).RefTraffic())
	rec.End(render)
	rec.End(root)

	accesses := float64(ss.Accesses())
	kindRuns := len(ss.Source.Kinds)
	for _, sh := range ss.Shards {
		kindRuns += len(sh.Kinds)
	}
	return &span.Run{Spans: rec.Spans(), Output: out.String(), Counts: map[string]float64{
		"trace.decoded_accesses":      accesses,
		"trace.decode_ns":             float64(rec.Duration(ingest)),
		"trace.addr_per_run":          accesses / float64(ss.Source.Len()),
		"trace.addr_per_shardrun":     accesses / float64(ss.Runs()),
		"trace.kind_bytes_per_access": float64(kindRuns) * float64(unsafe.Sizeof(trace.KindRun{})) / accesses,
	}}, nil
}

// sweepFlow traces `experiments -all -requests N -seed S -maxlog L
// -cache DIR`: the Table 3 and Table 4 batches through sweep.RunCells
// on one store, serially as the tool runs them. RunCells is opaque, so
// the simulation time its cells recorded — the DEW passes (core) and the
// reference passes (refsim) of the cells it simulated — is split out of
// the batch span after the fact; everything else in the batch (workload
// generation, stream builds, the instrumented cross-check, store loads
// and publishes) is the sweep's own time.
func sweepFlow(ctx context.Context, rec *span.Recorder, work string, args []string) (*span.Run, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.Bool("all", false, "")
	requests := fs.Uint64("requests", 200_000, "")
	seed := fs.Uint64("seed", 1, "")
	maxLog := fs.Int("maxlog", 14, "")
	dir := fs.String("cache", "", "")
	fs.Bool("quiet", false, "")
	fs.Bool("csv", false, "")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	root := rec.Begin("cli.run", -1, true)
	open := rec.Begin("store.open", root, true)
	st, err := store.Open(*dir, store.Options{MemBytes: 256 << 20})
	rec.End(open)
	if err != nil {
		return nil, err
	}
	r := sweep.Runner{Workers: 1, Shards: 1, Cache: st}
	var t3, all []sweep.Cell
	for i, params := range [][]sweep.Params{
		sweep.Table3Params(workload.Apps(), *seed, *requests, *maxLog),
		sweep.Table4Params(workload.Apps(), *seed, *requests, *maxLog),
	} {
		batch := rec.Begin("sweep.run_cells", root, true)
		cells, err := r.RunCells(ctx, params)
		rec.End(batch)
		if err != nil {
			return nil, err
		}
		var dew, ref time.Duration
		for _, c := range cells {
			if !c.ResultCacheHit {
				dew += c.DEWTime
				ref += c.RefTime
			}
		}
		if dew+ref > 0 {
			rec.Derive("core.dew", batch, 0, dew)
			rec.Derive("refsim.simulate", batch, dew, ref)
		}
		if i == 0 {
			t3 = cells
		}
		all = append(all, cells...)
	}
	rec.End(root)

	stats := st.Stats()
	disk, err := st.DiskStats()
	if err != nil {
		return nil, err
	}
	getRate, putRate, err := resultTierRates(ctx, work, all)
	if err != nil {
		return nil, err
	}
	simulated, cached, verified := sweep.Provenance(all)
	var speedups, cmpRatios []float64
	for _, c := range t3 {
		cmpRatios = append(cmpRatios, float64(c.RefComparisons)/float64(c.DEWComparisons))
		if c.Assoc != 16 { // Figure 5 plots associativities 4 and 8
			speedups = append(speedups, c.Speedup())
		}
	}
	hitRatio := 0.0
	if probes := stats.ResultHits + stats.ResultMisses; probes > 0 {
		hitRatio = float64(stats.ResultHits) / float64(probes)
	}
	return &span.Run{Spans: rec.Spans(), Counts: map[string]float64{
		"sweep.cells":                float64(len(all)),
		"sweep.cells_simulated":      float64(simulated),
		"sweep.cells_cached":         float64(cached),
		"sweep.warm_verified":        float64(verified),
		"sweep.dew_over_ref_speedup": median(speedups),
		"core.ref_over_dew_cmps":     median(cmpRatios),
		"store.result_hits":          float64(stats.ResultHits),
		"store.result_misses":        float64(stats.ResultMisses),
		"store.hit_ratio":            hitRatio,
		"store.stream_hits":          float64(stats.Hits),
		"store.mem_hits":             float64(stats.MemHits),
		"store.stores":               float64(stats.Stores),
		"store.result_stores":        float64(stats.ResultStores),
		"store.evictions":            float64(stats.Evictions),
		"store.quarantines":          float64(stats.Quarantines),
		"store.bytes":                float64(disk.Bytes),
		"store.get_result_per_s":     getRate,
		"store.put_result_per_s":     putRate,
	}}, nil
}

// resultTierRates measures the store's result tier at the sweep's blob
// shapes, outside the traced run: every cell's results are published
// into a fresh store (PutResult) and loaded back (GetResult). Returns
// loads and publishes per second.
func resultTierRates(ctx context.Context, work string, cells []sweep.Cell) (get, put float64, err error) {
	st, err := store.Open(filepath.Join(work, "result-tier"), store.Options{})
	if err != nil {
		return 0, 0, err
	}
	keys := make([]string, len(cells))
	start := time.Now()
	for i, c := range cells {
		spec := strconv.Itoa(i)
		keys[i] = store.ResultKey(store.Key("bench", c.BlockSize, 0, false), "bench-cell", spec)
		// A sweep cell's blob carries 20 scalars beside its records.
		rb := &store.ResultBlob{Engine: "bench-cell", SpecKey: spec, Scalars: make([]uint64, 20)}
		for _, res := range c.Results {
			rb.Records = append(rb.Records, store.ResultRecord{Config: res.Config, Stats: res.Stats})
		}
		if err := st.PutResult(ctx, keys[i], rb); err != nil {
			return 0, 0, err
		}
	}
	put = float64(len(cells)) / time.Since(start).Seconds()
	start = time.Now()
	for i, key := range keys {
		if _, err := st.GetResult(ctx, key, "bench-cell", strconv.Itoa(i)); err != nil {
			return 0, 0, err
		}
	}
	get = float64(len(cells)) / time.Since(start).Seconds()
	_, _, err = st.Clear()
	return get, put, err
}

// dewsimFlags are the dewsim flags the benchmark's dewsim workloads use.
type dewsimFlags struct {
	path                  string
	streamMem             int64
	assoc, minLog, maxLog int
	shards                int
	ladder                []int
}

func parseDewsim(args []string) (dewsimFlags, error) {
	var d dewsimFlags
	fs := flag.NewFlagSet("dewsim", flag.ContinueOnError)
	fs.StringVar(&d.path, "trace", "", "")
	fs.IntVar(&d.assoc, "assoc", 4, "")
	fs.IntVar(&d.minLog, "minlog", 0, "")
	fs.IntVar(&d.maxLog, "maxlog", 14, "")
	fs.IntVar(&d.shards, "shards", 1, "")
	fs.Int64Var(&d.streamMem, "stream-mem", 0, "")
	blocks := fs.String("blocks", "", "")
	fs.Bool("csv", false, "")
	if err := fs.Parse(args); err != nil {
		return d, err
	}
	for _, part := range strings.Split(*blocks, ",") {
		b, err := strconv.Atoi(part)
		if err != nil {
			return d, fmt.Errorf("-blocks: bad block size %q", part)
		}
		d.ladder = append(d.ladder, b)
	}
	sort.Ints(d.ladder)
	return d, nil
}

func (d dewsimFlags) spec(block int) engine.Spec {
	return engine.Spec{MinLogSets: d.minLog, MaxLogSets: d.maxLog, Assoc: d.assoc, BlockSize: block, Policy: cache.FIFO}
}

// renderDewsim renders dewsim's -csv result table; the "simulated"
// footer it prints after the blank line is what normalization drops.
func renderDewsim(rec *span.Recorder, root int, results []engine.Result) (string, error) {
	render := rec.Begin("cli.render", root, true)
	defer rec.End(render)
	var out strings.Builder
	tbl := report.NewTable("", "sets", "assoc", "block", "size", "accesses", "misses", "missRate")
	for _, res := range results {
		tbl.AddRow(res.Config.Sets, res.Config.Assoc, res.Config.BlockSize,
			cache.FormatSize(res.Config.SizeBytes()),
			res.Accesses, res.Misses, fmt.Sprintf("%.4f", res.MissRate()))
	}
	if err := tbl.RenderCSV(&out); err != nil {
		return "", err
	}
	fmt.Fprintf(&out, "\nsimulated %d configurations (traced run)\n", tbl.Rows())
	return out.String(), nil
}

// printRefStats renders refsim's statistics block.
func printRefStats(w io.Writer, stats refsim.Stats, tr refsim.Traffic) {
	fmt.Fprintf(w, "accesses:          %d (%d reads, %d writes, %d ifetches)\n",
		stats.Accesses, stats.AccessesByKind[trace.DataRead],
		stats.AccessesByKind[trace.DataWrite], stats.AccessesByKind[trace.IFetch])
	fmt.Fprintf(w, "misses:            %d (rate %.4f)\n", stats.Misses, stats.MissRate())
	fmt.Fprintf(w, "  compulsory:      %d\n", stats.CompulsoryMisses)
	fmt.Fprintf(w, "  by kind:         %d read, %d write, %d ifetch\n",
		stats.MissesByKind[trace.DataRead], stats.MissesByKind[trace.DataWrite],
		stats.MissesByKind[trace.IFetch])
	fmt.Fprintf(w, "evictions:         %d\n", stats.Evictions)
	fmt.Fprintf(w, "tag comparisons:   %d\n", stats.TagComparisons)
	fmt.Fprintf(w, "bytes from memory: %d\n", tr.BytesFromMemory)
	fmt.Fprintf(w, "bytes to memory:   %d (%d writebacks)\n", tr.BytesToMemory, tr.Writebacks)
}

func parsePolicies(write, alloc string) (refsim.WritePolicy, refsim.AllocPolicy, error) {
	var w refsim.WritePolicy
	var a refsim.AllocPolicy
	switch write {
	case "write-back", "wb":
		w = refsim.WriteBack
	case "write-through", "wt":
		w = refsim.WriteThrough
	default:
		return w, a, fmt.Errorf("unknown write policy %q", write)
	}
	switch alloc {
	case "write-allocate", "wa":
		a = refsim.WriteAllocate
	case "no-write-allocate", "nwa":
		a = refsim.NoWriteAllocate
	default:
		return w, a, fmt.Errorf("unknown allocation policy %q", alloc)
	}
	return w, a, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// timedReader opens the trace file on first use and records one
// trace.decode span per batch it decodes.
type timedReader struct {
	rec      *span.Recorder
	parent   int
	r        trace.BatchReader
	closer   io.Closer
	err      error
	accesses uint64
	busy     time.Duration
}

func (t *timedReader) open(path string) trace.Reader {
	r, closer, err := trace.OpenFile(path)
	if err != nil {
		t.err = err
		return t
	}
	t.r, t.closer = trace.Batch(r), closer
	return t
}

func (t *timedReader) Next() (trace.Access, error) {
	var a [1]trace.Access
	_, err := t.ReadBatch(a[:])
	return a[0], err
}

func (t *timedReader) ReadBatch(dst []trace.Access) (int, error) {
	if t.r == nil {
		return 0, t.err
	}
	id := t.rec.Begin("trace.decode", t.parent, false)
	start := time.Now()
	n, err := t.r.ReadBatch(dst)
	t.busy += time.Since(start)
	t.rec.End(id)
	t.accesses += uint64(n)
	if err != nil && t.closer != nil {
		t.closer.Close()
		t.closer = nil
	}
	return n, err
}

// timedEngine records one engine.simulate span per replay call.
type timedEngine struct {
	engine.Engine
	rec    *span.Recorder
	parent int
}

func (e *timedEngine) SimulateStream(bs *trace.BlockStream) error {
	id := e.rec.Begin("engine.simulate", e.parent, false)
	defer e.rec.End(id)
	return e.Engine.SimulateStream(bs)
}

func (e *timedEngine) SimulateSharded(ctx context.Context, ss *trace.ShardStream) error {
	id := e.rec.Begin("engine.simulate", e.parent, false)
	defer e.rec.End(id)
	return e.Engine.SimulateSharded(ctx, ss)
}
