// Command benchjson converts `go test -bench` output on stdin into the
// benchstat-compatible JSON summary the repository tracks as
// BENCH_core.json: per-benchmark run lists and means, derived
// sharded-over-stream speedup curves (per shard fan-out, from
// BenchmarkAccessSharded),
// the fold-over-decode speedup and per-rung fold compression of the
// block-size ladder (BenchmarkFoldLadder vs BenchmarkDecodeLadder),
// the stream's measured per-workload run-compression ratios, the
// write-policy replay's stream-over-per-access speedup and the kind
// channel's per-access memory cost (BenchmarkRefStreamWrite vs
// BenchmarkRefAccessWrite), the result tier's warm-sweep speedup and
// cell-serve throughput (BenchmarkSweepWarm vs BenchmarkSweepCold,
// recorded as speedup_sweep_warm_over_cold and
// result_cache_hit_cells_per_s), the span-ladder driver's
// concurrent-over-serial rung speedup (BenchmarkReplayStreamedLadder,
// recorded as speedup_ladder_concurrent_over_serial), the cold
// exploration's heap allocation per run (BenchmarkExploreCold's B/op,
// recorded as explore_cold_bytes_per_op), one sweep cell's reference
// replay time per access (BenchmarkRefStream, recorded as
// ref_stream_ns_per_access), the host's core count
// (num_cpu —
// context for the parallel curves), and —
// when a seed baseline file is given — speedups against the seed
// commit's single-access path. With -prev pointing at the previous
// BENCH_core.json, that recording is compacted into the new file's
// history list (appending to, not overwriting, the trajectory).
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkAccess(Single|Stream)$' . |
//	    go run ./scripts/benchjson -baseline scripts/seed_baseline.json \
//	        -prev BENCH_core.prev.json > BENCH_core.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// run is one benchmark line's measurements.
type run struct {
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerAccess float64 `json:"ns_per_access,omitempty"`
	AddrPerRun  float64 `json:"addr_per_run,omitempty"`
	BlocksPerS  float64 `json:"blocks_per_s,omitempty"`
	CellsPerS   float64 `json:"cells_per_s,omitempty"`
	// FoldAddrPerRun holds BenchmarkFoldLadder's per-rung compression
	// ratios, keyed "B8", "B16", ... (from addr/run/B<size> metrics).
	FoldAddrPerRun map[string]float64 `json:"fold_addr_per_run,omitempty"`
	// KindBPerAccess is BenchmarkRefStreamWrite's kind-channel memory
	// cost per trace access (from the kindB/access metric).
	KindBPerAccess float64 `json:"kind_b_per_access,omitempty"`
	// PeakB is BenchmarkReplayStreamed's enforced resident-stream bound
	// in bytes (from the peakB metric).
	PeakB float64 `json:"peak_b,omitempty"`
	// BytesPerOp and AllocsPerOp are -benchmem's heap bytes and
	// allocations per iteration.
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// series aggregates every run of one benchmark name.
type series struct {
	Runs               []run              `json:"runs"`
	NsPerOpMean        float64            `json:"ns_per_op_mean"`
	NsPerAccessMean    float64            `json:"ns_per_access_mean,omitempty"`
	NsPerAccessFastest float64            `json:"ns_per_access_fastest,omitempty"`
	AddrPerRunMean     float64            `json:"addr_per_run_mean,omitempty"`
	BlocksPerSFastest  float64            `json:"blocks_per_s_fastest,omitempty"`
	CellsPerSFastest   float64            `json:"cells_per_s_fastest,omitempty"`
	FoldAddrPerRun     map[string]float64 `json:"fold_addr_per_run,omitempty"`
	KindBPerAccess     float64            `json:"kind_b_per_access,omitempty"`
	PeakB              float64            `json:"peak_b,omitempty"`
	// BytesPerOpFastest is the B/op of the run with the lowest ns/op.
	BytesPerOpFastest float64 `json:"bytes_per_op_fastest,omitempty"`
}

// ratioBasis documents how the speedup maps of a recording were
// computed; entries without the field predate it and used per-series
// means.
const ratioBasis = "fastest_ns_per_access"

// historyEntry is the compact record of one previous bench.sh run.
type historyEntry struct {
	Generated                  string                        `json:"generated"`
	GitRev                     string                        `json:"git_rev,omitempty"`
	CPU                        string                        `json:"cpu,omitempty"`
	NumCPU                     int                           `json:"num_cpu,omitempty"`
	RatioBasis                 string                        `json:"ratio_basis,omitempty"`
	NsPerAccessMean            map[string]float64            `json:"ns_per_access_mean,omitempty"`
	SpeedupBatchOverSingle     map[string]float64            `json:"speedup_batch_over_single,omitempty"`
	SpeedupStreamOverBatch     map[string]float64            `json:"speedup_stream_over_batch,omitempty"`
	SpeedupShardedOverStream   map[string]map[string]float64 `json:"speedup_sharded_over_stream,omitempty"`
	RunCompression             map[string]float64            `json:"run_compression,omitempty"`
	IngestBlocksPerS           map[string]float64            `json:"ingest_blocks_per_s,omitempty"`
	SpeedupIngestOverSerial    map[string]float64            `json:"speedup_ingest_over_serial,omitempty"`
	SpanShardBlocksPerS        map[string]float64            `json:"span_shard_blocks_per_s,omitempty"`
	SpeedupSpanShardOverSerial map[string]float64            `json:"speedup_span_shard_over_serial,omitempty"`
	SpeedupFoldOverDecode      map[string]float64            `json:"speedup_fold_over_decode,omitempty"`
	FoldCompression            map[string]map[string]float64 `json:"fold_compression,omitempty"`
	SpeedupRefWriteStream      map[string]float64            `json:"speedup_refwrite_stream_over_access,omitempty"`
	KindChannelBPerAccess      map[string]float64            `json:"kind_channel_bytes_per_access,omitempty"`
	SpeedupWarmOverCold        map[string]float64            `json:"speedup_warm_over_cold,omitempty"`
	CacheLoadBlocksPerS        map[string]float64            `json:"cache_load_blocks_per_s,omitempty"`
	SpeedupSweepWarmOverCold   map[string]float64            `json:"speedup_sweep_warm_over_cold,omitempty"`
	ResultCacheHitCellsPerS    map[string]float64            `json:"result_cache_hit_cells_per_s,omitempty"`
	SpeedupStreamedOverPhased  map[string]float64            `json:"speedup_streamed_over_phased,omitempty"`
	PeakResidentBytes          map[string]float64            `json:"peak_resident_bytes,omitempty"`
	SpeedupLadderConcurrent    map[string]float64            `json:"speedup_ladder_concurrent_over_serial,omitempty"`
	ExploreColdBytesPerOp      map[string]float64            `json:"explore_cold_bytes_per_op,omitempty"`
	RefStreamNsPerAccess       map[string]float64            `json:"ref_stream_ns_per_access,omitempty"`
	SpeedupVsSeed              map[string]float64            `json:"speedup_vs_seed,omitempty"`
}

type output struct {
	Generated string `json:"generated"`
	Go        string `json:"go"`
	GitRev    string `json:"git_rev,omitempty"`
	CPU       string `json:"cpu,omitempty"`
	// NumCPU records the host's usable core count — the context the
	// sharded/ingest speedup curves must be read in (near-1.0× curves
	// on a 1-core host record coordination overhead, not a regression;
	// see ROADMAP's multi-core-validation item).
	NumCPU int `json:"num_cpu,omitempty"`
	// RatioBasis names the statistic the speedup maps divide (absent in
	// recordings that predate it, which divided per-series means).
	RatioBasis string             `json:"ratio_basis,omitempty"`
	Benchmarks map[string]*series `json:"benchmarks"`
	// SpeedupBatchOverSingle (ns_per_access(Single)/ns_per_access(Batch))
	// and SpeedupStreamOverBatch (ns_per_access(Batch)/ns_per_access(Stream))
	// are read from recordings made before the batched entry points were
	// removed (BenchmarkAccessBatch), so their history survives; nothing
	// writes them now.
	SpeedupBatchOverSingle map[string]float64 `json:"speedup_batch_over_single,omitempty"`
	SpeedupStreamOverBatch map[string]float64 `json:"speedup_stream_over_batch,omitempty"`
	// SpeedupShardedOverStream is, per workload and per shard fan-out
	// ("S2", "S4", ...), ns_per_access(Stream)/ns_per_access(Sharded) —
	// the shard-count speedup curve of the set-sharded parallel pass
	// over the single-thread stream path, both measured in this tree.
	// Values below 1 on single-core hosts record the coordination
	// overhead honestly.
	SpeedupShardedOverStream map[string]map[string]float64 `json:"speedup_sharded_over_stream,omitempty"`
	// RunCompression is the stream benchmark's measured accesses-per-run
	// ratio per workload.
	RunCompression map[string]float64 `json:"run_compression,omitempty"`
	// IngestBlocksPerS and SpeedupIngestOverSerial are read from
	// recordings made before the span pipeline replaced the sharded
	// ingest pipeline (BenchmarkIngestShards / BenchmarkIngestSerial),
	// so their history survives; nothing writes them now.
	IngestBlocksPerS        map[string]float64 `json:"ingest_blocks_per_s,omitempty"`
	SpeedupIngestOverSerial map[string]float64 `json:"speedup_ingest_over_serial,omitempty"`
	// SpanShardBlocksPerS is the front half of a sharded replay per
	// workload: span-pipeline decode plus the per-span shard split, in
	// block references per second (fastest sample of
	// BenchmarkSpanShard).
	SpanShardBlocksPerS map[string]float64 `json:"span_shard_blocks_per_s,omitempty"`
	// SpeedupSpanShardOverSerial is, per workload, that throughput over
	// the serial materialize-then-ShardBlockStream baseline
	// (BenchmarkSerialShard), both measured in this tree.
	SpeedupSpanShardOverSerial map[string]float64 `json:"speedup_span_shard_over_serial,omitempty"`
	// SpeedupFoldOverDecode is, per workload,
	// ns_per_access(DecodeLadder)/ns_per_access(FoldLadder): how much
	// cheaper deriving the coarser block sizes of the ladder by folding
	// is than re-decoding the trace once per block size, both measured
	// in this tree.
	SpeedupFoldOverDecode map[string]float64 `json:"speedup_fold_over_decode,omitempty"`
	// FoldCompression is, per workload and per fold rung ("B8", "B16",
	// ...), the folded stream's measured accesses-per-run ratio — the
	// per-step compression of the fold ladder.
	FoldCompression map[string]map[string]float64 `json:"fold_compression,omitempty"`
	// SpeedupRefWriteStream is, per workload,
	// ns_per_access(RefAccessWrite)/ns_per_access(RefStreamWrite): how
	// much cheaper the write-policy reference replay is over the
	// kind-preserving run stream than per access, both measured in this
	// tree under write-through/no-write-allocate.
	SpeedupRefWriteStream map[string]float64 `json:"speedup_refwrite_stream_over_access,omitempty"`
	// KindChannelBPerAccess is, per workload, the kind channel's memory
	// cost in bytes per trace access (kind-run records divided by
	// accesses) — the footprint the write-policy stream path pays over
	// the kind-free stream.
	KindChannelBPerAccess map[string]float64 `json:"kind_channel_bytes_per_access,omitempty"`
	// SpeedupWarmOverCold is, per workload,
	// ns_per_access(ExploreCold)/ns_per_access(ExploreWarm): how much
	// faster an exploration served from the content-addressed artifact
	// store runs than one that decodes the raw trace, both measured in
	// this tree over the same one-pass space.
	SpeedupWarmOverCold map[string]float64 `json:"speedup_warm_over_cold,omitempty"`
	// CacheLoadBlocksPerS is the DBS1 artifact load throughput per
	// workload (stream entries decoded per second, fastest sample of
	// BenchmarkStreamLoad) — the warm path's raw read speed.
	CacheLoadBlocksPerS map[string]float64 `json:"cache_load_blocks_per_s,omitempty"`
	// SpeedupSweepWarmOverCold is, per workload,
	// ns_per_access(SweepCold)/ns_per_access(SweepWarm): how much faster
	// a comparison sweep served entirely from the result tier of the
	// artifact store runs than one that simulates every cell, both
	// measured in this tree over the same cell grid.
	SpeedupSweepWarmOverCold map[string]float64 `json:"speedup_sweep_warm_over_cold,omitempty"`
	// ResultCacheHitCellsPerS is the result tier's warm-serve throughput
	// per workload (finished sweep cells loaded per second, fastest
	// sample of BenchmarkSweepWarm).
	ResultCacheHitCellsPerS map[string]float64 `json:"result_cache_hit_cells_per_s,omitempty"`
	// SpeedupStreamedOverPhased is, per workload,
	// ns_per_access(ReplayMaterialized)/ns_per_access(ReplayStreamed):
	// how much faster the end-to-end replay runs when decode, fold and
	// simulation overlap through the bounded span pipeline than when the
	// stream is fully materialized first, both measured in this tree
	// over the same workload, engine and spec.
	SpeedupStreamedOverPhased map[string]float64 `json:"speedup_streamed_over_phased,omitempty"`
	// PeakResidentBytes is, per workload, the streamed replay's enforced
	// resident-stream bound in bytes (BenchmarkReplayStreamed's peakB) —
	// the memory the pipeline holds where the phased baseline holds the
	// whole materialized stream.
	PeakResidentBytes map[string]float64 `json:"peak_resident_bytes,omitempty"`
	// SpeedupLadderConcurrent is, per workload, how much faster the
	// span-ladder driver replays a three-rung ladder with GOMAXPROCS
	// workers than with one (BenchmarkReplayStreamedLadder; see num_cpu).
	SpeedupLadderConcurrent map[string]float64 `json:"speedup_ladder_concurrent_over_serial,omitempty"`
	// ExploreColdBytesPerOp is, per workload, the heap bytes one cold
	// exploration of the benchmark space allocates (B/op of
	// BenchmarkExploreCold's fastest run).
	ExploreColdBytesPerOp map[string]float64 `json:"explore_cold_bytes_per_op,omitempty"`
	// RefStreamNsPerAccess is, per app and cell geometry
	// ("<app>/B<block>/A<assoc>"), the fastest ns/access of
	// BenchmarkRefStream: one sweep cell's 30 kind-free FIFO reference
	// passes over a materialized stream, the baseline DEW's Table 3
	// speedup is measured against.
	RefStreamNsPerAccess map[string]float64 `json:"ref_stream_ns_per_access,omitempty"`
	// SeedBaseline echoes the committed baseline measurements of the
	// seed commit's single-access path.
	SeedBaseline json.RawMessage `json:"seed_baseline,omitempty"`
	// SpeedupVsSeed is seed ns_per_access / best ns_per_access (stream
	// when present, else batch) per workload the baseline covers. The
	// numerator is the baseline file's single committed measurement of
	// the seed path; the denominator follows RatioBasis.
	SpeedupVsSeed map[string]float64 `json:"speedup_vs_seed,omitempty"`
	// History holds compact records of previous recordings, most recent
	// first (bench.sh appends rather than overwrites).
	History []historyEntry `json:"history,omitempty"`
}

// summarize compacts a full previous output into a history entry.
func (o *output) summarize() historyEntry {
	h := historyEntry{
		Generated:                  o.Generated,
		GitRev:                     o.GitRev,
		CPU:                        o.CPU,
		NumCPU:                     o.NumCPU,
		RatioBasis:                 o.RatioBasis,
		SpeedupBatchOverSingle:     o.SpeedupBatchOverSingle,
		SpeedupStreamOverBatch:     o.SpeedupStreamOverBatch,
		SpeedupShardedOverStream:   o.SpeedupShardedOverStream,
		RunCompression:             o.RunCompression,
		IngestBlocksPerS:           o.IngestBlocksPerS,
		SpeedupIngestOverSerial:    o.SpeedupIngestOverSerial,
		SpanShardBlocksPerS:        o.SpanShardBlocksPerS,
		SpeedupSpanShardOverSerial: o.SpeedupSpanShardOverSerial,
		SpeedupFoldOverDecode:      o.SpeedupFoldOverDecode,
		FoldCompression:            o.FoldCompression,
		SpeedupRefWriteStream:      o.SpeedupRefWriteStream,
		KindChannelBPerAccess:      o.KindChannelBPerAccess,
		SpeedupWarmOverCold:        o.SpeedupWarmOverCold,
		CacheLoadBlocksPerS:        o.CacheLoadBlocksPerS,
		SpeedupSweepWarmOverCold:   o.SpeedupSweepWarmOverCold,
		ResultCacheHitCellsPerS:    o.ResultCacheHitCellsPerS,
		SpeedupStreamedOverPhased:  o.SpeedupStreamedOverPhased,
		PeakResidentBytes:          o.PeakResidentBytes,
		SpeedupLadderConcurrent:    o.SpeedupLadderConcurrent,
		ExploreColdBytesPerOp:      o.ExploreColdBytesPerOp,
		RefStreamNsPerAccess:       o.RefStreamNsPerAccess,
		SpeedupVsSeed:              o.SpeedupVsSeed,
	}
	if len(o.Benchmarks) > 0 {
		h.NsPerAccessMean = map[string]float64{}
		for name, s := range o.Benchmarks {
			if s.NsPerAccessMean > 0 {
				h.NsPerAccessMean[name] = s.NsPerAccessMean
			}
		}
	}
	return h
}

// baseline mirrors scripts/seed_baseline.json.
type baseline struct {
	NsPerAccess map[string]float64 `json:"ns_per_access"`
}

func main() {
	baselinePath := flag.String("baseline", "", "path to the seed baseline JSON (optional)")
	prevPath := flag.String("prev", "", "path to the previous BENCH_core.json to fold into history (optional)")
	gitRev := flag.String("rev", "", "git revision to record (optional)")
	flag.Parse()

	out := output{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		GitRev:     *gitRev,
		NumCPU:     runtime.NumCPU(),
		RatioBasis: ratioBasis,
		Benchmarks: map[string]*series{},
	}

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			out.CPU = cpu
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		r := run{Iters: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = val
			case "ns/access":
				r.NsPerAccess = val
			case "addr/run", "addr/shardrun":
				r.AddrPerRun = val
			case "blocks/s":
				r.BlocksPerS = val
			case "cells/s":
				r.CellsPerS = val
			case "kindB/access":
				r.KindBPerAccess = val
			case "peakB":
				r.PeakB = val
			case "B/op":
				r.BytesPerOp = val
			case "allocs/op":
				r.AllocsPerOp = val
			default:
				// addr/run/B<size>: one fold rung's compression ratio.
				if rung, ok := strings.CutPrefix(unit, "addr/run/"); ok {
					if r.FoldAddrPerRun == nil {
						r.FoldAddrPerRun = map[string]float64{}
					}
					r.FoldAddrPerRun[rung] = val
				}
			}
		}
		s := out.Benchmarks[name]
		if s == nil {
			s = &series{}
			out.Benchmarks[name] = s
		}
		s.Runs = append(s.Runs, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	for _, s := range out.Benchmarks {
		var opSum, accSum, cmpSum, fastestOp float64
		for _, r := range s.Runs {
			if r.BytesPerOp > 0 && (fastestOp == 0 || r.NsPerOp < fastestOp) {
				fastestOp, s.BytesPerOpFastest = r.NsPerOp, r.BytesPerOp
			}
			opSum += r.NsPerOp
			accSum += r.NsPerAccess
			cmpSum += r.AddrPerRun
			if r.NsPerAccess > 0 && (s.NsPerAccessFastest == 0 || r.NsPerAccess < s.NsPerAccessFastest) {
				s.NsPerAccessFastest = r.NsPerAccess
			}
			if r.BlocksPerS > s.BlocksPerSFastest {
				s.BlocksPerSFastest = r.BlocksPerS
			}
			if r.CellsPerS > s.CellsPerSFastest {
				s.CellsPerSFastest = r.CellsPerS
			}
			// Fold-rung compression ratios and the kind channel's
			// per-access footprint are trace properties, not timings:
			// identical across runs, so keep the last seen.
			if r.FoldAddrPerRun != nil {
				s.FoldAddrPerRun = r.FoldAddrPerRun
			}
			if r.KindBPerAccess > 0 {
				s.KindBPerAccess = r.KindBPerAccess
			}
			// The resident bound is enforced, not measured: identical
			// across runs, so keep the last seen.
			if r.PeakB > 0 {
				s.PeakB = r.PeakB
			}
		}
		s.NsPerOpMean = opSum / float64(len(s.Runs))
		s.NsPerAccessMean = accSum / float64(len(s.Runs))
		s.AddrPerRunMean = cmpSum / float64(len(s.Runs))
	}

	// Pair Single/Batch/Stream sub-benchmarks by workload suffix. Ratios
	// use each series' fastest sample: interference on a shared machine
	// only ever slows a run, so the minimum is the least-contaminated
	// estimate of the true cost (means drift with whatever else the
	// host was doing while that series happened to run).
	out.SpeedupShardedOverStream = map[string]map[string]float64{}
	out.RunCompression = map[string]float64{}
	out.SpanShardBlocksPerS = map[string]float64{}
	out.SpeedupSpanShardOverSerial = map[string]float64{}
	out.SpeedupFoldOverDecode = map[string]float64{}
	out.FoldCompression = map[string]map[string]float64{}
	out.SpeedupRefWriteStream = map[string]float64{}
	out.KindChannelBPerAccess = map[string]float64{}
	out.SpeedupWarmOverCold = map[string]float64{}
	out.CacheLoadBlocksPerS = map[string]float64{}
	out.SpeedupSweepWarmOverCold = map[string]float64{}
	out.ResultCacheHitCellsPerS = map[string]float64{}
	out.SpeedupStreamedOverPhased = map[string]float64{}
	out.PeakResidentBytes = map[string]float64{}
	out.SpeedupLadderConcurrent = map[string]float64{}
	out.ExploreColdBytesPerOp = map[string]float64{}
	out.RefStreamNsPerAccess = map[string]float64{}
	for name, s := range out.Benchmarks {
		if app, ok := strings.CutPrefix(name, "BenchmarkAccessStream/"); ok && s.NsPerAccessFastest > 0 && s.AddrPerRunMean > 0 {
			out.RunCompression[app] = round2(s.AddrPerRunMean)
		}
		if app, ok := strings.CutPrefix(name, "BenchmarkFoldLadder/"); ok && s.NsPerAccessFastest > 0 {
			if decode, ok := out.Benchmarks["BenchmarkDecodeLadder/"+app]; ok && decode.NsPerAccessFastest > 0 {
				out.SpeedupFoldOverDecode[app] = round2(decode.NsPerAccessFastest / s.NsPerAccessFastest)
			}
			if len(s.FoldAddrPerRun) > 0 {
				rungs := map[string]float64{}
				for rung, ratio := range s.FoldAddrPerRun {
					rungs[rung] = round2(ratio)
				}
				out.FoldCompression[app] = rungs
			}
		}
		if app, ok := strings.CutPrefix(name, "BenchmarkRefStreamWrite/"); ok {
			if s.NsPerAccessFastest > 0 {
				if access, ok := out.Benchmarks["BenchmarkRefAccessWrite/"+app]; ok && access.NsPerAccessFastest > 0 {
					out.SpeedupRefWriteStream[app] = round2(access.NsPerAccessFastest / s.NsPerAccessFastest)
				}
			}
			if s.KindBPerAccess > 0 {
				out.KindChannelBPerAccess[app] = round2(s.KindBPerAccess)
			}
		}
		if app, ok := strings.CutPrefix(name, "BenchmarkExploreWarm/"); ok && s.NsPerAccessFastest > 0 {
			if cold, ok := out.Benchmarks["BenchmarkExploreCold/"+app]; ok && cold.NsPerAccessFastest > 0 {
				out.SpeedupWarmOverCold[app] = round2(cold.NsPerAccessFastest / s.NsPerAccessFastest)
			}
		}
		if app, ok := strings.CutPrefix(name, "BenchmarkExploreCold/"); ok && s.BytesPerOpFastest > 0 {
			out.ExploreColdBytesPerOp[app] = s.BytesPerOpFastest
		}
		if cell, ok := strings.CutPrefix(name, "BenchmarkRefStream/"); ok && s.NsPerAccessFastest > 0 {
			out.RefStreamNsPerAccess[cell] = round2(s.NsPerAccessFastest)
		}
		if app, ok := strings.CutPrefix(name, "BenchmarkStreamLoad/"); ok && s.BlocksPerSFastest > 0 {
			out.CacheLoadBlocksPerS[app] = round2(s.BlocksPerSFastest)
		}
		if app, ok := strings.CutPrefix(name, "BenchmarkSweepWarm/"); ok {
			if s.NsPerAccessFastest > 0 {
				if cold, ok := out.Benchmarks["BenchmarkSweepCold/"+app]; ok && cold.NsPerAccessFastest > 0 {
					out.SpeedupSweepWarmOverCold[app] = round2(cold.NsPerAccessFastest / s.NsPerAccessFastest)
				}
			}
			if s.CellsPerSFastest > 0 {
				out.ResultCacheHitCellsPerS[app] = round2(s.CellsPerSFastest)
			}
		}
		if app, ok := strings.CutPrefix(name, "BenchmarkReplayStreamed/"); ok {
			if s.NsPerAccessFastest > 0 {
				if phased, ok := out.Benchmarks["BenchmarkReplayMaterialized/"+app]; ok && phased.NsPerAccessFastest > 0 {
					out.SpeedupStreamedOverPhased[app] = round2(phased.NsPerAccessFastest / s.NsPerAccessFastest)
				}
			}
			if s.PeakB > 0 {
				out.PeakResidentBytes[app] = s.PeakB
			}
		}
		if rest, ok := strings.CutPrefix(name, "BenchmarkReplayStreamedLadder/"); ok && s.NsPerAccessFastest > 0 {
			if app, ok := strings.CutSuffix(rest, "/concurrent"); ok {
				if serial, ok := out.Benchmarks["BenchmarkReplayStreamedLadder/"+app+"/serial"]; ok && serial.NsPerAccessFastest > 0 {
					out.SpeedupLadderConcurrent[app] = round2(serial.NsPerAccessFastest / s.NsPerAccessFastest)
				}
			}
		}
		if app, ok := strings.CutPrefix(name, "BenchmarkSpanShard/"); ok && s.BlocksPerSFastest > 0 {
			out.SpanShardBlocksPerS[app] = round2(s.BlocksPerSFastest)
			if serial, ok := out.Benchmarks["BenchmarkSerialShard/"+app]; ok && serial.BlocksPerSFastest > 0 {
				out.SpeedupSpanShardOverSerial[app] = round2(s.BlocksPerSFastest / serial.BlocksPerSFastest)
			}
		}
		// BenchmarkAccessSharded/<app>/S<k>: one curve point per fan-out.
		if rest, ok := strings.CutPrefix(name, "BenchmarkAccessSharded/"); ok && s.NsPerAccessFastest > 0 {
			app, fanout, found := strings.Cut(rest, "/")
			if !found {
				continue
			}
			if stream, ok := out.Benchmarks["BenchmarkAccessStream/"+app]; ok && stream.NsPerAccessFastest > 0 {
				curve := out.SpeedupShardedOverStream[app]
				if curve == nil {
					curve = map[string]float64{}
					out.SpeedupShardedOverStream[app] = curve
				}
				curve[fanout] = round2(stream.NsPerAccessFastest / s.NsPerAccessFastest)
			}
		}
	}

	if *baselinePath != "" {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var base baseline
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
		out.SeedBaseline = json.RawMessage(raw)
		out.SpeedupVsSeed = map[string]float64{}
		apps := make([]string, 0, len(base.NsPerAccess))
		for app := range base.NsPerAccess {
			apps = append(apps, app)
		}
		sort.Strings(apps)
		for _, app := range apps {
			if best, ok := out.Benchmarks["BenchmarkAccessStream/"+app]; ok && best.NsPerAccessFastest > 0 {
				out.SpeedupVsSeed[app] = round2(base.NsPerAccess[app] / best.NsPerAccessFastest)
			}
		}
	}

	// History is best-effort: an unreadable or corrupt previous file is
	// reported but never blocks recording the current run (a wedged
	// BENCH_core.json must not make every future bench run fail).
	if *prevPath != "" {
		if raw, err := os.ReadFile(*prevPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: warning: skipping history: %v\n", err)
		} else {
			var prev output
			if err := json.Unmarshal(raw, &prev); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: warning: skipping unparseable history %s: %v\n", *prevPath, err)
			} else {
				out.History = append([]historyEntry{prev.summarize()}, prev.History...)
			}
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func round2(f float64) float64 {
	return float64(int(f*100+0.5)) / 100
}
