package cli

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"dew/internal/cache"
	"dew/internal/energy"
	"dew/internal/explore"
	"dew/internal/report"
	"dew/internal/trace"
	"dew/internal/workload"
)

// Explore runs a full design-space exploration and ranks configurations
// with the parametric energy model.
func Explore(ctx context.Context, env Env, args []string) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	var (
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel DEW passes")
		shards  = fs.Int("shards", 1, "run each DEW pass set-sharded with this fan-out instead of parallelizing across passes, splitting each span as the trace streams in (1 = off, 0 = auto from GOMAXPROCS; -stream-mem sets the span budget)")
		maxLogS = fs.Int("maxlog-sets", 14, "largest set count as log2")
		maxLogB = fs.Int("maxlog-block", 6, "largest block size as log2 bytes")
		maxLogA = fs.Int("maxlog-assoc", 4, "largest associativity as log2")
		top     = fs.Int("top", 10, "print the N best configurations by modeled energy")
		maxSize = fs.Int("max-size", 0, "only rank configurations up to this many bytes (0 = no limit)")
		csv     = fs.Bool("csv", false, "dump every configuration as CSV instead of the ranking")
		quiet   = fs.Bool("quiet", false, "suppress progress output")
		policy  = fs.String("policy", "FIFO", "replacement policy for every pass: FIFO or LRU")
		engName = fs.String("engine", "dew", engineFlagDoc())
		kinds   = fs.Bool("kinds", false, "materialize the kind-preserving stream and price the trace's store share at the model's write energy factor in the ranking")
	)
	cacheDir := addCacheFlag(fs)
	streamMemStr := addStreamMemFlag(fs, "materialized path", "materializes streams in full")
	tf := addTraceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *top < 0 {
		return usagef("-top must be at least 0")
	}
	if *maxSize < 0 {
		return usagef("-max-size must be at least 0")
	}

	space := cache.ParamSpace{
		MinLogSets: 0, MaxLogSets: *maxLogS,
		MinLogBlock: 0, MaxLogBlock: *maxLogB,
		MinLogAssoc: 0, MaxLogAssoc: *maxLogA,
	}
	if err := space.Validate(); err != nil {
		return err
	}

	var src explore.Source
	switch {
	case *tf.traceFile != "":
		// Lazy: the file is opened only if the exploration actually
		// decodes — a warm cache run never reads the trace.
		src = fileSource(*tf.traceFile)
	case *tf.appName != "":
		app, err := workload.Lookup(*tf.appName)
		if err != nil {
			return err
		}
		count := *tf.n
		if count == 0 {
			count = app.DefaultRequests()
		}
		src = explore.FromApp(app, *tf.seed, count)
	default:
		return usagef("pass -trace FILE or -app NAME")
	}

	pol, err := cache.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	if *shards, err = resolveShards(*shards); err != nil {
		return err
	}
	streamMem, err := parseMemBytes(*streamMemStr)
	if err != nil {
		return err
	}
	req := explore.Request{Space: space, Source: src, Workers: *workers, Shards: *shards, Policy: pol, Engine: *engName, Kinds: *kinds, StreamMem: streamMem}
	if req.Cache, req.SourceID, err = tf.openSourceCache(*cacheDir); err != nil {
		return err
	}
	if !*quiet {
		req.Progress = func(done, total int) {
			fmt.Fprintf(env.Stderr, "\rpasses: %d/%d", done, total)
			if done == total {
				fmt.Fprintln(env.Stderr)
			}
		}
	}
	res, err := explore.Run(ctx, req)
	if err != nil {
		return err
	}

	// With -kinds the ranking prices the trace's store share at the
	// write energy factor (the totals are a trace property, so they
	// apply to every configuration); without it, the kind-free model.
	model := energy.DefaultModel()
	rank := func(results map[cache.Config]cache.Stats) []energy.Scored {
		if *kinds {
			return model.RankSplit(results, res.KindTotals)
		}
		return model.Rank(results)
	}

	if *csv {
		tbl := report.NewTable("", "sets", "assoc", "block", "sizeBytes", "accesses", "misses", "missRate", "energyPJ")
		for _, s := range rank(res.Stats) {
			tbl.AddRow(s.Config.Sets, s.Config.Assoc, s.Config.BlockSize, s.Config.SizeBytes(),
				s.Stats.Accesses, s.Stats.Misses,
				fmt.Sprintf("%.6f", s.Stats.MissRate()), fmt.Sprintf("%.1f", s.Energy))
		}
		return tbl.RenderCSV(env.Stdout)
	}

	blocks := make([]int, 0, len(res.StreamCompression))
	for b := range res.StreamCompression {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	var comp []string
	for _, b := range blocks {
		comp = append(comp, fmt.Sprintf("B%d %.1fx", b, res.StreamCompression[b]))
	}
	shardNote := ""
	if res.Shards > 0 {
		shardNote = fmt.Sprintf(", each pass sharded across %d trees", res.Shards)
	}
	prov := fmt.Sprintf("%d trace decode + %d folds", res.Decodes, res.Folds)
	switch {
	case res.Decodes == 0:
		prov = "fully result-cached, 0 trace decodes"
	case res.Streamed:
		prov = fmt.Sprintf("streamed: 1 overlapped decode + %d incremental folds, peak %s stream resident",
			res.Folds, cache.FormatSize(int(res.StreamPeakBytes)))
	}
	if res.CellsCached > 0 {
		prov += fmt.Sprintf("; passes: %d simulated, %d result-cached (%d live re-verified)",
			res.CellsSimulated, res.CellsCached, res.WarmVerified)
	}
	fmt.Fprintf(env.Stdout, "explored %d configurations with %d DEW passes over %d shared block streams (%s; run compression: %s)%s\n\n",
		len(res.Stats), res.Passes, len(blocks), prov, strings.Join(comp, ", "), shardNote)
	if *kinds {
		fmt.Fprintf(env.Stdout, "request mix: %d reads, %d writes, %d ifetches (stores priced at %.2fx access energy)\n\n",
			res.KindTotals[trace.DataRead], res.KindTotals[trace.DataWrite], res.KindTotals[trace.IFetch],
			model.WriteEnergyFactor)
	}

	candidates := res.Stats
	if *maxSize > 0 {
		candidates = map[cache.Config]cache.Stats{}
		for cfg, st := range res.Stats {
			if cfg.SizeBytes() <= *maxSize {
				candidates[cfg] = st
			}
		}
		fmt.Fprintf(env.Stdout, "%d configurations within the %s budget\n\n",
			len(candidates), cache.FormatSize(*maxSize))
	}

	ranked := rank(candidates)
	n := *top
	if n > len(ranked) {
		n = len(ranked)
	}
	fmt.Fprintf(env.Stdout, "best %d by modeled energy:\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(env.Stdout, "%3d. %s\n", i+1, ranked[i])
	}
	return nil
}
