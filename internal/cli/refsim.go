package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"time"

	"dew/internal/cache"
	"dew/internal/engine"
	"dew/internal/refsim"
	"dew/internal/trace"
)

// RefSim simulates a single cache configuration over a trace — the
// Dinero IV role: one (sets, assoc, block, policy) combination per run,
// full statistics including per-kind counts and write-policy traffic.
// With -stream-mem or -shards ≥ 2 the replay instead streams
// kind-preserving spans through the reference engine — with -shards,
// each span split into set-substreams replayed by the sharded engine;
// the write/alloc axes and the full statistics set work identically
// there, because the kind channel preserves exactly the per-run
// structure a write-policy replay observes.
func RefSim(ctx context.Context, env Env, args []string) error {
	fs := flag.NewFlagSet("refsim", flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	var (
		sets      = fs.Int("sets", 256, "number of sets (power of two)")
		assoc     = fs.Int("assoc", 4, "associativity (power of two)")
		block     = fs.Int("block", 32, "block size in bytes (power of two)")
		policyStr = fs.String("policy", "FIFO", "replacement policy: FIFO, LRU or Random")
		wp        = fs.String("write", "write-back", "write policy: write-back (wb) or write-through (wt)")
		alloc     = fs.String("alloc", "write-allocate", "allocation policy: write-allocate (wa) or no-write-allocate (nwa)")
		sbytes    = fs.Int("store-bytes", 4, "store width in bytes charged for write-through and no-write-allocate traffic")
		shards    = fs.Int("shards", 1, "replay this many set-substreams in parallel over the kind-preserving stream, split span by span as the trace streams in (1 = off, 0 = auto from GOMAXPROCS; -stream-mem sets the span budget)")
	)
	cacheDir := addCacheFlag(fs)
	streamMemStr := addStreamMemFlag(fs, "per-access replay", "replays the trace access by access from the reader, materializing nothing")
	tf := addTraceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	cfg, err := cache.NewConfig(*sets, *assoc, *block)
	if err != nil {
		return err
	}
	policy, err := cache.ParsePolicy(*policyStr)
	if err != nil {
		return err
	}
	if *shards, err = resolveShards(*shards); err != nil {
		return err
	}
	opts := refsim.Options{Config: cfg, Replacement: policy, StoreBytes: *sbytes}
	if opts.Write, err = parseWritePolicy(*wp); err != nil {
		return err
	}
	if opts.Alloc, err = parseAllocPolicy(*alloc); err != nil {
		return err
	}
	if *sbytes < 0 {
		return usagef("-store-bytes must be at least 0")
	}
	streamMem, err := parseMemBytes(*streamMemStr)
	if err != nil {
		return err
	}
	if streamMem > 0 || *shards > 1 {
		return refSimStreamed(ctx, env, tf, opts, policy, streamMem, *shards, *cacheDir)
	}

	r, closer, err := tf.open()
	if err != nil {
		return err
	}
	if closer != nil {
		defer closer.Close()
	}

	sim, err := refsim.NewSim(opts)
	if err != nil {
		return err
	}
	stats, err := sim.Simulate(r)
	if err != nil {
		return err
	}

	fmt.Fprintf(env.Stdout, "config:            %v, %v replacement, %v, %v\n",
		cfg, policy, opts.Write, opts.Alloc)
	printRefStats(env.Stdout, stats, sim.Traffic())
	return nil
}

// printRefStats renders the full Dinero-style record — shared by the
// per-access and sharded stream paths so their outputs are comparable
// line for line.
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

// refSimStreamed is the stream-replay path (-stream-mem, -shards ≥ 2):
// the trace's kind-preserving spans, decoded chunk-parallel by one
// bounded span pipeline, replay through the single-configuration
// reference engine as they appear, so decode and simulation overlap
// and the resident stream state stays within the budget. The replay is a one-pass engine.Plan, so it runs on the
// span-ladder driver (engine.SpanLadder) as a one-rung ladder; with
// -shards each span is split into set-substreams replayed by the
// sharded engine. The shard count resolves through the trace.ShardLog
// rounding every -shards knob uses, capped at the set count, and
// Random replacement (whose decomposition is not exact) falls back to
// the monolithic replay inside the engine.
// The accumulated statistics are bit-identical to the per-access replay
// for every policy (including Random: its generator steps once per
// eviction, evictions happen only on a run's first access, and run
// compression preserves exactly that sequence). With an artifact cache
// the result tier is probed first — a warm run prints the full record
// with zero simulations and zero trace decodes — and a simulated
// record is published to the result tier.
func refSimStreamed(ctx context.Context, env Env, tf traceFlags, opts refsim.Options, policy cache.Policy, streamMem int64, shards int, cacheDir string) error {
	cfg := opts.Config
	logSets := bits.Len(uint(cfg.Sets)) - 1
	log := trace.ShardLog(shards, logSets)
	// Neither the span budget nor the shard fan-out is a key axis: the
	// statistics are bit-identical across both.
	plan := &engine.Plan{Kinds: true, Passes: []engine.Pass{{Engine: "ref", Spec: engine.Spec{
		MinLogSets: logSets, MaxLogSets: logSets,
		Assoc: cfg.Assoc, BlockSize: cfg.BlockSize, Policy: policy,
		WriteSim: true, Write: opts.Write, Alloc: opts.Alloc, StoreBytes: opts.StoreBytes,
	}}}}
	var err error
	if plan.Store, plan.SourceID, err = tf.openSourceCache(cacheDir); err != nil {
		return err
	}
	start := time.Now()
	passes, resident, err := plan.Replay(ctx, engine.Spans{
		Blocks: []int{cfg.BlockSize}, ShardLog: log,
		Decode: tf.spans(ctx, cfg.BlockSize, streamMem, true),
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	pr := passes[0]

	fmt.Fprintf(env.Stdout, "config:            %v, %v replacement, %v, %v\n",
		cfg, policy, opts.Write, opts.Alloc)
	switch {
	case resident == 0:
		fmt.Fprintf(env.Stdout, "replay:            result-cached (0 simulations, 0 trace decodes)\n")
	case log < 0:
		fmt.Fprintf(env.Stdout, "replay:            %s, replayed in %v\n", spanNote(resident), elapsed.Round(time.Millisecond))
	case pr.Parallel:
		fmt.Fprintf(env.Stdout, "replay:            %d set-substreams in parallel (%s, replayed in %v)\n",
			1<<log, spanNote(resident), elapsed.Round(time.Millisecond))
	default:
		fmt.Fprintf(env.Stdout, "replay:            monolithic fallback (%v policy or %d sets < %d shards; %s, replayed in %v)\n",
			policy, cfg.Sets, 1<<log, spanNote(resident), elapsed.Round(time.Millisecond))
	}
	printRefStats(env.Stdout, *pr.Ref, *pr.Traffic)
	return nil
}
