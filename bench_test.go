package dew

// One benchmark per table and figure of the paper's evaluation section,
// plus ablation benchmarks for the DEW properties and the perf
// trajectory of the access pipeline (single vs batch vs stream; see
// README.md).
// The figure benchmarks report the paper's derived metrics
// (speedup, comparison reduction) via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every headline number in
// miniature. cmd/experiments produces the full tables.

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"unsafe"

	"dew/internal/cache"
	"dew/internal/core"
	"dew/internal/engine"
	"dew/internal/explore"
	"dew/internal/lrutree"
	"dew/internal/refsim"
	"dew/internal/store"
	"dew/internal/sweep"
	"dew/internal/trace"
	"dew/internal/workload"
)

// benchRequests keeps individual benchmark iterations fast while large
// enough to exercise every property; cmd/experiments runs full scale.
const benchRequests = 100_000

// benchMaxLog bounds set counts at 2^10 in the benches (the paper's 2^14
// is exercised by cmd/experiments and TestPaperScaleOptions).
const benchMaxLog = 10

var benchTraces = map[string]trace.Trace{}

func benchTrace(b *testing.B, app workload.App) trace.Trace {
	b.Helper()
	tr, ok := benchTraces[app.Name]
	if !ok {
		tr = workload.Take(app.Generator(1), benchRequests)
		benchTraces[app.Name] = tr
	}
	return tr
}

// BenchmarkTable1ConfigSpace measures enumerating the 525-configuration
// parameter space of Table 1.
func BenchmarkTable1ConfigSpace(b *testing.B) {
	space := cache.PaperSpace()
	for i := 0; i < b.N; i++ {
		cfgs := space.Configs()
		if len(cfgs) != 525 {
			b.Fatalf("got %d configs", len(cfgs))
		}
	}
}

// BenchmarkTable2TraceGeneration measures the synthetic Mediabench trace
// generators that stand in for Table 2's SimpleScalar traces.
func BenchmarkTable2TraceGeneration(b *testing.B) {
	for _, app := range workload.Apps() {
		b.Run(app.Name, func(b *testing.B) {
			g := app.Generator(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
	}
}

// BenchmarkTable3DEW measures the DEW side of Table 3: one single-pass
// simulation of all set counts for each (app, block, assoc) cell.
func BenchmarkTable3DEW(b *testing.B) {
	for _, app := range workload.Apps() {
		for _, block := range []int{4, 16, 64} {
			for _, assoc := range []int{4, 8, 16} {
				name := fmt.Sprintf("%s/B%d/A%d", app.Name, block, assoc)
				b.Run(name, func(b *testing.B) {
					tr := benchTrace(b, app)
					opt := core.Options{MaxLogSets: benchMaxLog, Assoc: assoc, BlockSize: block}
					b.ResetTimer()
					var cmps uint64
					for i := 0; i < b.N; i++ {
						sim := core.MustNew(opt)
						if err := sim.Simulate(tr.NewSliceReader()); err != nil {
							b.Fatal(err)
						}
						cmps = sim.Counters().TagComparisons
					}
					b.ReportMetric(float64(cmps)/float64(len(tr)), "cmp/access")
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/access")
				})
			}
		}
	}
}

// benchAccessOpt is the pass shape the core fast-path benchmarks share:
// one representative Table 3 cell.
var benchAccessOpt = core.Options{MaxLogSets: benchMaxLog, Assoc: 4, BlockSize: 16}

// benchAccessApps are the workloads the perf trajectory is tracked on.
var benchAccessApps = []workload.App{workload.CJPEG, workload.G721Dec}

// BenchmarkAccessSingle measures the single-access pipeline exactly as
// the seed ran it: one interface-dispatched Reader.Next call plus one
// fully instrumented Access call per request. Compare with
// BenchmarkAccessStream; the ns/access pair is the perf trajectory
// scripts/bench.sh records in BENCH_core.json.
func BenchmarkAccessSingle(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			tr := benchTrace(b, app)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim := core.MustNew(benchAccessOpt)
				var r trace.Reader = tr.NewSliceReader()
				for {
					a, err := r.Next()
					if err != nil {
						break
					}
					sim.Access(a)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/access")
		})
	}
}

// BenchmarkAccessStream measures the run-compressed stream fast path
// over the same workloads and pass shape as BenchmarkAccessSingle. The
// stream is materialized once outside the timed region — exactly how
// the sweep and explore layers amortize it across a whole design space —
// and the addr/run metric records the measured run-compression ratio.
// The simulator is built once and Reset per iteration — the arenas are
// reused, so the allocs/op column doubles as the zero-steady-state-
// allocation regression check.
func BenchmarkAccessStream(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			tr := benchTrace(b, app)
			bs, err := tr.BlockStream(benchAccessOpt.BlockSize)
			if err != nil {
				b.Fatal(err)
			}
			sim := core.MustNew(benchAccessOpt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Reset()
				if err := sim.SimulateStream(bs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/access")
			b.ReportMetric(bs.CompressionRatio(), "addr/run")
		})
	}
}

// BenchmarkAccessSharded measures the set-sharded parallel pass at
// increasing fan-outs against the same workloads, pass shape and
// underlying stream as BenchmarkAccessStream (whose single-thread
// ns/access is the baseline for the shard speedup curves bench.sh
// records). The shard partition is materialized once outside the timed
// region, like the stream; the pass is built once per fan-out and Reset
// between iterations. Fan-out only helps with cores to spread across —
// on a single-core machine the curve records the (small) coordination
// overhead instead.
func BenchmarkAccessSharded(b *testing.B) {
	for _, app := range benchAccessApps {
		tr := benchTrace(b, app)
		bs, err := tr.BlockStream(benchAccessOpt.BlockSize)
		if err != nil {
			b.Fatal(err)
		}
		for _, shards := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/S%d", app.Name, shards), func(b *testing.B) {
				log := trace.ShardLog(shards, benchAccessOpt.MaxLogSets)
				ss, err := trace.ShardBlockStream(bs, log)
				if err != nil {
					b.Fatal(err)
				}
				sh, err := core.NewSharded(benchAccessOpt, log, 0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sh.Reset()
					if err := sh.SimulateStream(context.Background(), ss); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/access")
				b.ReportMetric(float64(bs.Accesses)/float64(ss.Runs()), "addr/shardrun")
			})
		}
	}
}

// benchFoldBlocks is the block ladder the fold benchmarks walk; the
// first entry is the single decode rung, the rest are fold-derived.
var benchFoldBlocks = []int{4, 8, 16, 32, 64}

// BenchmarkFoldLadder measures deriving every coarser block size of the
// ladder from one stream at the finest size — what the design-space
// frontends (explore.Run, sweep.RunCells) now do instead of re-decoding
// the trace once per block size. The base stream is materialized once
// outside the timed region (that single decode is the whole ladder's
// trace cost); each iteration folds the full ladder through reusable
// destinations, so steady state allocates nothing. ns/access divides by
// the trace length — compare BenchmarkDecodeLadder, the deleted
// decode-per-block-size baseline over the same sizes — and each rung's
// run-compression ratio is reported as addr/run/B<size>
// (scripts/bench.sh records both the speedup and the per-step
// compression in BENCH_core.json).
func BenchmarkFoldLadder(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			tr := benchTrace(b, app)
			base, err := tr.BlockStream(benchFoldBlocks[0])
			if err != nil {
				b.Fatal(err)
			}
			rungs := make([]*trace.BlockStream, len(benchFoldBlocks)-1)
			for i := range rungs {
				rungs[i] = &trace.BlockStream{}
			}
			foldAll := func() {
				cur := base
				for _, dst := range rungs {
					cur = trace.FoldBlockStreamInto(dst, cur)
				}
			}
			foldAll() // size the destinations once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				foldAll()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/access")
			for _, dst := range rungs {
				b.ReportMetric(dst.CompressionRatio(), fmt.Sprintf("addr/run/B%d", dst.BlockSize))
			}
		})
	}
}

// BenchmarkDecodeLadder is BenchmarkFoldLadder's baseline: the coarser
// block sizes of the same ladder materialized by separate full decodes
// of the in-memory trace — one O(accesses) pass per block size, the way
// explore.Run and sweep.RunCells built their streams before folding.
func BenchmarkDecodeLadder(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			tr := benchTrace(b, app)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, block := range benchFoldBlocks[1:] {
					if _, err := tr.BlockStream(block); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/access")
		})
	}
}

// benchDinTexts caches each workload's .din encoding for the shard
// benchmarks.
var benchDinTexts = map[string][]byte{}

func benchDinText(b *testing.B, app workload.App) []byte {
	b.Helper()
	text, ok := benchDinTexts[app.Name]
	if !ok {
		var buf bytes.Buffer
		w := trace.NewDinWriter(&buf)
		for _, a := range benchTrace(b, app) {
			if err := w.WriteAccess(a); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		text = buf.Bytes()
		benchDinTexts[app.Name] = text
	}
	return text
}

// benchShardLog is the shard level the shard benchmarks build (8
// substreams, the widest fan-out the shard benchmarks track).
const benchShardLog = 3

// BenchmarkSpanShard measures the front half of every sharded replay
// on .din text: the chunk-parallel span pipeline decodes and
// run-compresses the trace at the default span budget, and each span
// is split into a reused 2^3-shard partition (ShardBlockStreamInto) as
// it arrives. blocks/s is the end-to-end decode→partition throughput
// (block references per second) scripts/bench.sh records per workload
// in BENCH_core.json; compare BenchmarkSerialShard, the serial
// materialize-then-ShardBlockStream path over the same bytes.
func BenchmarkSpanShard(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			text := benchDinText(b, app)
			var accesses uint64
			var part trace.ShardStream
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := trace.StreamDinSpans(context.Background(), bytes.NewReader(text), benchAccessOpt.BlockSize, trace.SpanOptions{})
				if err != nil {
					b.Fatal(err)
				}
				accesses = 0
				for s := range p.Spans() {
					if _, err := trace.ShardBlockStreamInto(&part, &s.BlockStream, benchShardLog); err != nil {
						b.Fatal(err)
					}
					accesses += s.Accesses
				}
				if err := p.Err(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
		})
	}
}

// BenchmarkSerialShard is the serial baseline: one goroutine decodes
// the same .din bytes, materializes the block stream, then partitions
// it with the two-pass ShardBlockStream walk.
func BenchmarkSerialShard(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			text := benchDinText(b, app)
			var accesses uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs, err := trace.MaterializeBlockStream(trace.NewDinReader(bytes.NewReader(text)), benchAccessOpt.BlockSize)
				if err != nil {
					b.Fatal(err)
				}
				ss, err := trace.ShardBlockStream(bs, benchShardLog)
				if err != nil {
					b.Fatal(err)
				}
				accesses = ss.Accesses()
			}
			b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
		})
	}
}

// BenchmarkAccessStreamLRU is BenchmarkAccessStream under the LRU
// replacement policy: the same workloads, pass shape and shared
// materialized stream, but every warm miss pays the LRU victim
// selection instead of the FIFO cursor bump. It tracks the cost of the
// policy generalization (the paper's Section 2.1 caveat) the same way
// the FIFO benchmarks track the main path — and guarded the O(A)
// victim-scan fix (per-node recency links replacing the min-stamp
// scan).
func BenchmarkAccessStreamLRU(b *testing.B) {
	opt := benchAccessOpt
	opt.Policy = cache.LRU
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			tr := benchTrace(b, app)
			bs, err := tr.BlockStream(opt.BlockSize)
			if err != nil {
				b.Fatal(err)
			}
			sim := core.MustNew(opt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Reset()
				if err := sim.SimulateStream(bs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/access")
		})
	}
}

// benchWriteSim builds the write-policy reference simulator the
// write-replay benchmarks share: one representative configuration under
// write-through / no-write-allocate — the combination whose
// leading-store bypasses exercise every run shape of the kind-aware
// fold (write-back/write-allocate degenerates to the kind-free fold
// plus a dirty bit).
func benchWriteSim(b *testing.B) *refsim.Simulator {
	b.Helper()
	sim, err := refsim.NewSim(refsim.Options{
		Config:      cache.Config{Sets: 256, Assoc: benchAccessOpt.Assoc, BlockSize: benchAccessOpt.BlockSize},
		Replacement: cache.FIFO,
		Write:       refsim.WriteThrough,
		Alloc:       refsim.NoWriteAllocate,
		StoreBytes:  4,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// BenchmarkRefAccessWrite measures the write-policy reference simulator
// on the per-access path: one interface-dispatched Reader.Next call
// plus one Access call per request — the only way refsim could replay
// the write/alloc axes before the kind-preserving stream. It is the
// baseline for BenchmarkRefStreamWrite; scripts/bench.sh records the
// pair's ratio as speedup_refwrite_stream_over_access in
// BENCH_core.json.
func BenchmarkRefAccessWrite(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			tr := benchTrace(b, app)
			sim := benchWriteSim(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Reset()
				if _, err := sim.Simulate(tr.NewSliceReader()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/access")
		})
	}
}

// BenchmarkRefStreamWrite measures the same write-policy replay over
// the kind-preserving run stream: each repeated-block run folds exactly
// under the write/alloc policy from its KindRun record instead of being
// expanded per access. The stream is materialized once outside the
// timed region — how a write-policy design-space sweep would amortize
// it — and the kindB/access metric reports the kind channel's
// memory cost per trace access (the price of keeping the write-policy
// axes on the stream path), which bench.sh records per workload
// alongside the stream-over-access speedup.
func BenchmarkRefStreamWrite(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			tr := benchTrace(b, app)
			bs, err := tr.BlockStreamWithKinds(benchAccessOpt.BlockSize)
			if err != nil {
				b.Fatal(err)
			}
			sim := benchWriteSim(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Reset()
				if _, err := sim.SimulateStream(bs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/access")
			b.ReportMetric(bs.CompressionRatio(), "addr/run")
			kindBytes := float64(len(bs.Kinds)) * float64(unsafe.Sizeof(trace.KindRun{}))
			b.ReportMetric(kindBytes/float64(bs.Accesses), "kindB/access")
		})
	}
}

// BenchmarkBatchedReaders measures trace delivery alone (simulation
// excluded): the per-access Next loop against the ReadBatch loop, for
// the in-memory reader and the workload generator stream.
func BenchmarkBatchedReaders(b *testing.B) {
	tr := benchTrace(b, workload.CJPEG)
	b.Run("slice/next", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var r trace.Reader = tr.NewSliceReader()
			for {
				if _, err := r.Next(); err != nil {
					break
				}
			}
		}
	})
	b.Run("slice/batch", func(b *testing.B) {
		buf := make([]trace.Access, trace.DefaultBatchSize)
		for i := 0; i < b.N; i++ {
			var r trace.BatchReader = tr.NewSliceReader()
			for {
				if _, err := r.ReadBatch(buf); err != nil {
					break
				}
			}
		}
	})
	b.Run("stream/next", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := workload.Stream(workload.CJPEG.Generator(1), benchRequests)
			for {
				if _, err := r.Next(); err != nil {
					break
				}
			}
		}
	})
	b.Run("stream/batch", func(b *testing.B) {
		buf := make([]trace.Access, trace.DefaultBatchSize)
		for i := 0; i < b.N; i++ {
			r := trace.Batch(workload.Stream(workload.CJPEG.Generator(1), benchRequests))
			for {
				if _, err := r.ReadBatch(buf); err != nil {
					break
				}
			}
		}
	})
}

// BenchmarkTable3Reference measures the baseline side of Table 3: one
// reference pass per configuration (the Dinero IV methodology) for a
// representative subset of cells.
func BenchmarkTable3Reference(b *testing.B) {
	for _, app := range []workload.App{workload.CJPEG, workload.MPEG2Dec} {
		for _, block := range []int{4, 64} {
			for _, assoc := range []int{4, 8} {
				name := fmt.Sprintf("%s/B%d/A%d", app.Name, block, assoc)
				b.Run(name, func(b *testing.B) {
					tr := benchTrace(b, app)
					b.ResetTimer()
					var cmps uint64
					for i := 0; i < b.N; i++ {
						cmps = 0
						for log := 0; log <= benchMaxLog; log++ {
							for _, a := range []int{1, assoc} {
								cfg := cache.Config{Sets: 1 << log, Assoc: a, BlockSize: block}
								stats, err := refsim.RunTrace(cfg, cache.FIFO, tr)
								if err != nil {
									b.Fatal(err)
								}
								cmps += stats.TagComparisons
							}
						}
					}
					b.ReportMetric(float64(cmps)/float64(len(tr)), "cmp/access")
				})
			}
		}
	}
}

// BenchmarkRefStream is the reference side of one sweep cell: kind-free
// FIFO passes at associativity 1 and A for each of the 15 set counts
// 2^0..2^14, each a fresh simulator replaying one stream materialized
// outside the timed region — what sweep.RunCells times as the baseline
// DEW's speedup is measured against. It covers the apps, block sizes
// and associativities of BenchmarkTable3Reference; ns/access is the
// whole cell's time per trace access and cmp/access its tag
// comparisons. bench.sh records the ns/access per app and cell
// geometry as ref_stream_ns_per_access.
func BenchmarkRefStream(b *testing.B) {
	const sweepMaxLog = 14
	for _, app := range []workload.App{workload.CJPEG, workload.MPEG2Dec} {
		for _, block := range []int{4, 64} {
			for _, assoc := range []int{4, 8} {
				name := fmt.Sprintf("%s/B%d/A%d", app.Name, block, assoc)
				b.Run(name, func(b *testing.B) {
					tr := benchTrace(b, app)
					bs, err := tr.BlockStream(block)
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					var cmps uint64
					for i := 0; i < b.N; i++ {
						cmps = 0
						for log := 0; log <= sweepMaxLog; log++ {
							for _, a := range []int{1, assoc} {
								cfg := cache.Config{Sets: 1 << log, Assoc: a, BlockSize: block}
								ref, err := refsim.New(cfg, cache.FIFO)
								if err != nil {
									b.Fatal(err)
								}
								stats, err := ref.SimulateStream(bs)
								if err != nil {
									b.Fatal(err)
								}
								cmps += stats.TagComparisons
							}
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/access")
					b.ReportMetric(float64(cmps)/float64(len(tr)), "cmp/access")
				})
			}
		}
	}
}

// BenchmarkTable4Properties reports the Table 4 property counters per
// access for every app at block size 4 (associativity 4 and 8).
func BenchmarkTable4Properties(b *testing.B) {
	for _, app := range workload.Apps() {
		for _, assoc := range []int{4, 8} {
			name := fmt.Sprintf("%s/A%d", app.Name, assoc)
			b.Run(name, func(b *testing.B) {
				tr := benchTrace(b, app)
				opt := core.Options{MaxLogSets: benchMaxLog, Assoc: assoc, BlockSize: 4}
				var c core.Counters
				var unopt uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sim := core.MustNew(opt)
					if err := sim.Simulate(tr.NewSliceReader()); err != nil {
						b.Fatal(err)
					}
					c = sim.Counters()
					unopt = sim.UnoptimizedEvaluations()
				}
				n := float64(len(tr))
				b.ReportMetric(float64(c.NodeEvaluations)/n, "eval/access")
				b.ReportMetric(float64(unopt)/n, "unoptEval/access")
				b.ReportMetric(float64(c.MRACount)/n, "mra/access")
				b.ReportMetric(float64(c.Searches)/n, "search/access")
				b.ReportMetric(float64(c.WaveCount)/n, "wave/access")
				b.ReportMetric(float64(c.MRECount)/n, "mre/access")
			})
		}
	}
}

// BenchmarkFigure5Speedup reproduces Figure 5's metric: the measured
// wall-time ratio between the per-configuration baseline and one DEW
// pass, reported as "speedup".
func BenchmarkFigure5Speedup(b *testing.B) {
	for _, app := range []workload.App{workload.DJPEG, workload.MPEG2Dec} {
		for _, block := range []int{4, 16, 64} {
			name := fmt.Sprintf("%s/B%d", app.Name, block)
			b.Run(name, func(b *testing.B) {
				params := []sweep.Params{{App: app, Seed: 1, Requests: benchRequests, BlockSize: block, Assoc: 4, MaxLogSets: benchMaxLog}}
				var speedup float64
				for i := 0; i < b.N; i++ {
					cells, err := (sweep.Runner{}).RunCells(context.Background(), params)
					if err != nil {
						b.Fatal(err)
					}
					speedup = cells[0].Speedup()
				}
				b.ReportMetric(speedup, "speedup")
			})
		}
	}
}

// BenchmarkFigure6ComparisonReduction reproduces Figure 6's metric: the
// percentage reduction of tag comparisons, reported as "reduction%".
func BenchmarkFigure6ComparisonReduction(b *testing.B) {
	for _, app := range []workload.App{workload.DJPEG, workload.MPEG2Dec} {
		for _, block := range []int{4, 16, 64} {
			name := fmt.Sprintf("%s/B%d", app.Name, block)
			b.Run(name, func(b *testing.B) {
				params := []sweep.Params{{App: app, Seed: 1, Requests: benchRequests, BlockSize: block, Assoc: 4, MaxLogSets: benchMaxLog}}
				var red float64
				for i := 0; i < b.N; i++ {
					cells, err := (sweep.Runner{}).RunCells(context.Background(), params)
					if err != nil {
						b.Fatal(err)
					}
					red = cells[0].ComparisonReduction()
				}
				b.ReportMetric(red, "reduction%")
			})
		}
	}
}

// BenchmarkAblation quantifies each DEW property's contribution by
// disabling them one at a time (and all together). Compare ns/op and
// cmp/access across sub-benchmarks.
func BenchmarkAblation(b *testing.B) {
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"full", core.Options{}},
		{"noMRA", core.Options{DisableMRA: true}},
		{"noWave", core.Options{DisableWave: true}},
		{"noMRE", core.Options{DisableMRE: true}},
		{"none", core.Options{DisableMRA: true, DisableWave: true, DisableMRE: true}},
	}
	tr := workload.Take(workload.CJPEG.Generator(1), benchRequests)
	for _, v := range variants {
		opt := v.opt
		opt.MaxLogSets = benchMaxLog
		opt.Assoc = 4
		opt.BlockSize = 16
		b.Run(v.name, func(b *testing.B) {
			var cmps uint64
			for i := 0; i < b.N; i++ {
				sim := core.MustNew(opt)
				if err := sim.Simulate(tr.NewSliceReader()); err != nil {
					b.Fatal(err)
				}
				cmps = sim.Counters().TagComparisons
			}
			b.ReportMetric(float64(cmps)/float64(len(tr)), "cmp/access")
		})
	}
}

// BenchmarkLRUTreeVsDEW contrasts the two single-pass simulators (FIFO
// vs LRU policies) on the same trace — the related-work baseline.
func BenchmarkLRUTreeVsDEW(b *testing.B) {
	tr := workload.Take(workload.G721Enc.Generator(1), benchRequests)
	b.Run("DEW-FIFO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim := core.MustNew(core.Options{MaxLogSets: benchMaxLog, Assoc: 4, BlockSize: 16})
			if err := sim.Simulate(tr.NewSliceReader()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Tree-LRU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim, err := lrutree.New(lrutree.Options{MaxLogSets: benchMaxLog, Assoc: 4, BlockSize: 16})
			if err != nil {
				b.Fatal(err)
			}
			if err := sim.Simulate(tr.NewSliceReader()); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The paper's Section 2.1 limitation: DEW can simulate LRU but is
	// expected to be slower than the LRU-specialized tree simulator.
	b.Run("DEW-LRU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim := core.MustNew(core.Options{MaxLogSets: benchMaxLog, Assoc: 4, BlockSize: 16, Policy: cache.LRU})
			if err := sim.Simulate(tr.NewSliceReader()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPaperScaleOptions confirms the paper's full parameterization
// (15 levels up to 16384 sets, associativity up to 16, block sizes to 64)
// is accepted and runs end to end on a short trace.
func TestPaperScaleOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale allocation test skipped in -short mode")
	}
	tr := workload.Take(workload.CJPEG.Generator(1), 10_000)
	for _, block := range []int{1, 64} {
		sim, err := core.Run(core.Options{MaxLogSets: 14, Assoc: 16, BlockSize: block}, tr.NewSliceReader())
		if err != nil {
			t.Fatal(err)
		}
		if got := len(sim.Results()); got != 30 {
			t.Errorf("B=%d: results = %d, want 30", block, got)
		}
	}
}

// benchStreams memoizes the finest-rung (16-byte block) kind-free
// stream of each benchmark workload, mirroring benchTraces.
var benchStreams = map[string]*trace.BlockStream{}

func benchStream(b *testing.B, app workload.App) *trace.BlockStream {
	b.Helper()
	bs, ok := benchStreams[app.Name]
	if !ok {
		var err error
		bs, err = trace.MaterializeBlockStream(benchTrace(b, app).NewSliceReader(), 16)
		if err != nil {
			b.Fatal(err)
		}
		benchStreams[app.Name] = bs
	}
	return bs
}

// BenchmarkStreamMarshal measures encoding the finest-rung block stream
// into its DBS1 artifact form — the store's publish cost on a cold run.
func BenchmarkStreamMarshal(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			bs := benchStream(b, app)
			b.ReportAllocs()
			var blob []byte
			for i := 0; i < b.N; i++ {
				var err error
				blob, err = bs.MarshalBinary()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(blob)))
		})
	}
}

// BenchmarkStreamLoad measures decoding a DBS1 artifact back into a
// block stream — the store's warm-hit cost. The blocks/s metric is the
// cache-load throughput recorded as cache_load_blocks_per_s in
// BENCH_core.json.
func BenchmarkStreamLoad(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			bs := benchStream(b, app)
			blob, err := bs.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var got trace.BlockStream
				if _, err := got.ReadFrom(bytes.NewReader(blob)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bs.Len())*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
		})
	}
}

// benchExploreReq builds the exploration both cache benchmarks share:
// Table 1's set-count range at four block sizes and associativities
// 1–4 (eight passes, so engines are recycled across block sizes and the
// fold ladder slides) over a .din-text rendering of the trace, the
// format real trace files arrive in, so the cold run pays the parse the
// warm run skips. The request arrives cache-free (cold form).
func benchExploreReq(b *testing.B, app workload.App) explore.Request {
	b.Helper()
	tr := benchTrace(b, app)
	var buf bytes.Buffer
	w := trace.NewDinWriter(&buf)
	for _, a := range tr {
		if err := w.WriteAccess(a); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	din := buf.Bytes()
	return explore.Request{
		Space: cache.ParamSpace{
			MinLogSets: 0, MaxLogSets: 14,
			MinLogBlock: 2, MaxLogBlock: 5,
			MinLogAssoc: 0, MaxLogAssoc: 2,
		},
		Source:  func() trace.Reader { return trace.NewDinReader(bytes.NewReader(din)) },
		Workers: 1,
	}
}

// BenchmarkExploreCold measures an exploration that decodes the raw
// trace every run (no artifact store). Its B/op is recorded as
// explore_cold_bytes_per_op in BENCH_core.json.
func BenchmarkExploreCold(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			req := benchExploreReq(b, app)
			nAccesses := len(benchTrace(b, app))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := explore.Run(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if res.Decodes != 1 {
					b.Fatalf("cold run decoded %d times, want 1", res.Decodes)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nAccesses), "ns/access")
		})
	}
}

// BenchmarkExploreWarm measures the same exploration served from a
// pre-populated artifact store: zero trace decodes, results
// bit-identical to the cold run. The ns/access ratio against
// BenchmarkExploreCold is recorded as speedup_warm_over_cold in
// BENCH_core.json.
func BenchmarkExploreWarm(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			st, err := store.Open(b.TempDir(), store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			req := benchExploreReq(b, app)
			req.Cache = st
			req.SourceID = store.TraceID(benchTrace(b, app))
			if _, err := explore.Run(context.Background(), req); err != nil {
				b.Fatal(err) // untimed populating run
			}
			nAccesses := len(benchTrace(b, app))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := explore.Run(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if !res.CacheHit || res.Decodes != 0 {
					b.Fatalf("warm run missed the cache (hit=%v decodes=%d)", res.CacheHit, res.Decodes)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nAccesses), "ns/access")
		})
	}
}

// benchSweepParams is the small cell grid both sweep cache benchmarks
// share: two associativity pairs at one block size, full reference
// cross-check per cell as always.
func benchSweepParams(app workload.App) []sweep.Params {
	var params []sweep.Params
	for _, assoc := range []int{2, 4} {
		params = append(params, sweep.Params{
			App: app, Seed: 1, Requests: benchRequests,
			BlockSize: 16, Assoc: assoc, MaxLogSets: 8,
		})
	}
	return params
}

// BenchmarkSweepCold measures the full sweep with no artifact store:
// every cell materializes its stream and runs the DEW pass plus both
// reference passes.
func BenchmarkSweepCold(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			params := benchSweepParams(app)
			nAccesses := benchRequests * len(params)
			r := sweep.Runner{Workers: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cells, err := r.RunCells(context.Background(), params)
				if err != nil {
					b.Fatal(err)
				}
				if len(cells) != len(params) {
					b.Fatalf("%d cells, want %d", len(cells), len(params))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nAccesses), "ns/access")
		})
	}
}

// BenchmarkSweepWarm measures the same sweep served entirely from the
// result tier of a pre-populated artifact store: zero simulations,
// zero trace decodes (the sampled live re-check is disabled so the
// benchmark times the pure warm path). The ns/access ratio against
// BenchmarkSweepCold is recorded as speedup_sweep_warm_over_cold in
// BENCH_core.json, and the cells/s metric as
// result_cache_hit_cells_per_s.
func BenchmarkSweepWarm(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			st, err := store.Open(b.TempDir(), store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			params := benchSweepParams(app)
			r := sweep.Runner{Workers: 1, Cache: st, NoWarmCheck: true}
			if _, err := r.RunCells(context.Background(), params); err != nil {
				b.Fatal(err) // untimed populating run
			}
			nAccesses := benchRequests * len(params)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cells, err := r.RunCells(context.Background(), params)
				if err != nil {
					b.Fatal(err)
				}
				if sim, cached, _ := sweep.Provenance(cells); sim != 0 || cached != len(params) {
					b.Fatalf("warm sweep simulated %d cells (%d cached), want all %d cached", sim, cached, len(params))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nAccesses), "ns/access")
			b.ReportMetric(float64(len(params))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkReplayMaterialized measures the phased replay baseline the
// streaming pipeline competes with: decode the whole trace into a
// materialized run-compressed stream, then replay it through the dew
// engine — two serial phases with the full stream resident in between.
// Compare BenchmarkReplayStreamed over the same workload, spec and
// engine; scripts/bench.sh records the pair's ns/access ratio as
// speedup_streamed_over_phased and the pipeline's enforced residency
// as peak_resident_bytes in BENCH_core.json.
func BenchmarkReplayMaterialized(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			spec := engine.Spec{
				MaxLogSets: benchMaxLog, Assoc: benchAccessOpt.Assoc,
				BlockSize: benchAccessOpt.BlockSize, Policy: cache.FIFO,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs, err := trace.MaterializeBlockStream(
					workload.Stream(app.Generator(1), benchRequests), spec.BlockSize)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := engine.New("dew", spec)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.SimulateStream(bs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(benchRequests), "ns/access")
		})
	}
}

// BenchmarkReplayStreamed measures the same end-to-end replay through
// the bounded span pipeline: decode and simulation overlap, and the
// resident stream state never exceeds the budget (reported as peakB —
// the enforced bound, where the materialized baseline holds the whole
// stream). The statistics accumulated by the engine are bit-identical
// to the baseline's; only the schedule differs.
func BenchmarkReplayStreamed(b *testing.B) {
	for _, app := range benchAccessApps {
		b.Run(app.Name, func(b *testing.B) {
			spec := engine.Spec{
				MaxLogSets: benchMaxLog, Assoc: benchAccessOpt.Assoc,
				BlockSize: benchAccessOpt.BlockSize, Policy: cache.FIFO,
			}
			var peak int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl, err := trace.StreamSpans(context.Background(),
					workload.Stream(app.Generator(1), benchRequests), spec.BlockSize,
					trace.SpanOptions{MemBytes: 4 << 20})
				if err != nil {
					b.Fatal(err)
				}
				eng, err := engine.New("dew", spec)
				if err != nil {
					pl.Close()
					b.Fatal(err)
				}
				for s := range pl.Spans() {
					if err := eng.SimulateStream(&s.BlockStream); err != nil {
						pl.Close()
						b.Fatal(err)
					}
				}
				if err := pl.Err(); err != nil {
					b.Fatal(err)
				}
				peak = pl.ResidentBound()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(benchRequests), "ns/access")
			b.ReportMetric(float64(peak), "peakB")
		})
	}
}

// benchLadderBlocks is the three-rung ladder of
// BenchmarkReplayStreamedLadder — the dewsim-streamed shape.
var benchLadderBlocks = []int{4, 16, 64}

// BenchmarkReplayStreamedLadder measures the span-ladder driver
// (engine.SpanLadder) on a three-rung ladder: every span is folded to
// each rung and the rungs replay through their DEW FIFO passes, with
// one worker ("serial", the pre-driver schedule) and with GOMAXPROCS
// workers ("concurrent", one rung per worker). The spans are cut from
// a materialized stream up front and the engines are Reset per
// iteration, so the figure is fold plus replay alone; results are
// bit-identical at either worker count. scripts/bench.sh records the
// serial-over-concurrent ns/access ratio as
// speedup_ladder_concurrent_over_serial (bounded by the host's
// num_cpu and by the finest rung's share of the work).
func BenchmarkReplayStreamedLadder(b *testing.B) {
	for _, app := range benchAccessApps {
		bs, err := benchTrace(b, app).BlockStream(benchLadderBlocks[0])
		if err != nil {
			b.Fatal(err)
		}
		spans := trace.SplitSpans(bs, 4096)
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"concurrent", 0}} {
			b.Run(app.Name+"/"+mode.name, func(b *testing.B) {
				engs := map[int][]engine.Engine{}
				for _, block := range benchLadderBlocks {
					e, err := engine.New("dew", engine.Spec{
						MaxLogSets: benchMaxLog, Assoc: benchAccessOpt.Assoc,
						BlockSize: block, Policy: cache.FIFO,
					})
					if err != nil {
						b.Fatal(err)
					}
					engs[block] = []engine.Engine{e}
				}
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, es := range engs {
						es[0].Reset()
					}
					l, err := engine.NewSpanLadder(benchLadderBlocks[0], benchLadderBlocks, false, -1, mode.workers, engs)
					if err != nil {
						b.Fatal(err)
					}
					for _, s := range spans {
						if err := l.Feed(ctx, &s.BlockStream); err != nil {
							b.Fatal(err)
						}
					}
					if err := l.Flush(ctx); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(benchRequests), "ns/access")
			})
		}
	}
}
