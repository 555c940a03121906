package cli

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"time"

	"dew/internal/cache"
	"dew/internal/report"
	"dew/internal/store"
	"dew/internal/sweep"
	"dew/internal/workload"
)

// Experiments regenerates the tables and figures of the paper's
// evaluation (Section 5). Every DEW result is cross-checked against the
// reference simulator during the run; a mismatch aborts.
func Experiments(ctx context.Context, env Env, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	var (
		tableList  = fs.String("table", "", "comma-separated table numbers to regenerate (1-4)")
		figureList = fs.String("figure", "", "comma-separated figure numbers to regenerate (5-6)")
		all        = fs.Bool("all", false, "regenerate every table and figure")
		requests   = fs.Uint64("requests", 200_000, "requests per trace (0 = per-app scaled defaults, up to 4M)")
		seed       = fs.Uint64("seed", 1, "workload generator seed")
		seeds      = fs.Int("seeds", 1, "replicate each cell across N consecutive seeds and combine")
		maxLog     = fs.Int("maxlog", 14, "log2 of the largest simulated set count (14 = paper)")
		extList    = fs.String("ext", "", "comma-separated extended experiments to run (1-4, beyond the paper)")
		workers    = fs.Int("workers", 1, "worker pool size for sweep cells, every seed's replica included (1 = serial, timing-faithful; 0 = all cores)")
		shards     = fs.Int("shards", 1, "also run each cell's set-sharded parallel DEW pass and sharded reference replays with this fan-out, cross-checked against the monolithic passes (1 = off, 0 = auto per cell from the stream's own statistics)")
		csv        = fs.Bool("csv", false, "emit tables as CSV")
		quiet      = fs.Bool("quiet", false, "suppress progress output")
	)
	cacheDir := addCacheFlag(fs)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	cacheStore, err := openCache(*cacheDir)
	if err != nil {
		return err
	}
	ec := expConfig{
		cache:    cacheStore,
		env:      env,
		tables:   map[int]bool{},
		figures:  map[int]bool{},
		requests: *requests,
		seed:     *seed,
		seeds:    *seeds,
		maxLog:   *maxLog,
		workers:  *workers,
		shards:   *shards,
		csv:      *csv,
		quiet:    *quiet,
	}
	if ec.shards < 0 {
		return usagef("-shards must be at least 0")
	}
	if ec.shards == 0 {
		// Auto: each cell sizes its fan-out from its own materialized
		// stream (per-shard re-compression and balance), not the core
		// count alone.
		ec.shards = sweep.ShardsAuto
	}
	if *all {
		for i := 1; i <= 4; i++ {
			ec.tables[i] = true
		}
		ec.figures[5], ec.figures[6] = true, true
	}
	if err := parseSelection(*tableList, ec.tables, 1, 4); err != nil {
		return err
	}
	if err := parseSelection(*figureList, ec.figures, 5, 6); err != nil {
		return err
	}
	exts := map[int]bool{}
	if err := parseSelection(*extList, exts, 1, 4); err != nil {
		return err
	}
	if len(ec.tables) == 0 && len(ec.figures) == 0 && len(exts) == 0 {
		return usagef("nothing selected; pass -all, -table N, -figure N or -ext N")
	}
	if ec.seeds < 1 {
		return usagef("-seeds must be at least 1")
	}

	if ec.tables[1] {
		if err := expTable1(ec); err != nil {
			return err
		}
	}
	if ec.tables[2] {
		if err := expTable2(ec); err != nil {
			return err
		}
	}

	// Table 3 and both figures share one sweep, and Table 4's cells are
	// a subset of it: when it runs, Table 4 takes its rows from it
	// instead of simulating them again.
	var t3 []sweep.Cell
	if ec.tables[3] || ec.figures[5] || ec.figures[6] {
		cells, err := expSweep(ctx, ec, sweep.Table3Params(workload.Apps(), ec.seed, ec.requests, ec.maxLog))
		if err != nil {
			return err
		}
		t3 = cells
	}
	if ec.tables[3] {
		if err := expTable3(ec, t3); err != nil {
			return err
		}
	}
	if ec.tables[4] {
		params := sweep.Table4Params(workload.Apps(), ec.seed, ec.requests, ec.maxLog)
		cells, ok := subsetCells(t3, params)
		if !ok {
			if cells, err = expSweep(ctx, ec, params); err != nil {
				return err
			}
		}
		if err := expTable4(ec, cells); err != nil {
			return err
		}
	}
	if ec.figures[5] {
		if err := expFigure(ec, t3, 5); err != nil {
			return err
		}
	}
	if ec.figures[6] {
		if err := expFigure(ec, t3, 6); err != nil {
			return err
		}
	}
	for e := 1; e <= 4; e++ {
		if exts[e] {
			if err := expExtended(ctx, ec, e); err != nil {
				return err
			}
		}
	}
	return nil
}

type expConfig struct {
	env      Env
	cache    *store.Store
	tables   map[int]bool
	figures  map[int]bool
	requests uint64
	seed     uint64
	seeds    int
	maxLog   int
	workers  int
	shards   int
	csv      bool
	quiet    bool
}

func parseSelection(s string, into map[int]bool, lo, hi int) error {
	if s == "" {
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < lo || n > hi {
			return usagef("invalid selection %q (valid: %d-%d)", part, lo, hi)
		}
		into[n] = true
	}
	return nil
}

func expRender(ec expConfig, t *report.Table) error {
	var err error
	if ec.csv {
		err = t.RenderCSV(ec.env.Stdout)
	} else {
		err = t.Render(ec.env.Stdout)
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(ec.env.Stdout)
	return err
}

func expSweep(ctx context.Context, ec expConfig, params []sweep.Params) ([]sweep.Cell, error) {
	r := sweep.Runner{Workers: ec.workers, Shards: ec.shards, Cache: ec.cache}
	if !ec.quiet {
		r.Logf = func(f string, a ...interface{}) {
			fmt.Fprintf(ec.env.Stderr, "  "+f+"\n", a...)
		}
	}
	// Every cell and seed runs as one batch across the worker pool;
	// each table row combines its cell's seeds, in params order.
	start := time.Now()
	aggs, err := r.RunSeeds(ctx, params, sweep.Seeds(ec.seed, ec.seeds))
	if err != nil {
		return nil, err
	}
	var seedCells []sweep.Cell
	cells := make([]sweep.Cell, len(aggs))
	for i, agg := range aggs {
		seedCells = append(seedCells, agg.Cells...)
		cells[i] = agg.Combined()
	}
	if !ec.quiet {
		fmt.Fprintf(ec.env.Stderr, "sweep of %d cells finished in %v; every configuration verified exact\n",
			len(seedCells), time.Since(start).Round(time.Millisecond))
		if ec.cache != nil {
			sim, cached, verified := sweep.Provenance(seedCells)
			fmt.Fprintf(ec.env.Stderr, "cells: %d simulated, %d result-cached (%d live re-verified)\n",
				sim, cached, verified)
		}
	}
	return cells, nil
}

// subsetCells returns the cells whose params are want, in want's order,
// or false when cells lacks one of them.
func subsetCells(cells []sweep.Cell, want []sweep.Params) ([]sweep.Cell, bool) {
	type key struct {
		app                  string
		seed, requests       uint64
		block, assoc, maxLog int
	}
	keyOf := func(p sweep.Params) key {
		return key{p.App.Name, p.Seed, p.Requests, p.BlockSize, p.Assoc, p.MaxLogSets}
	}
	index := make(map[key]sweep.Cell, len(cells))
	for _, c := range cells {
		index[keyOf(c.Params)] = c
	}
	out := make([]sweep.Cell, len(want))
	for i, p := range want {
		c, ok := index[keyOf(p)]
		if !ok {
			return nil, false
		}
		out[i] = c
	}
	return out, true
}

func expTable1(ec expConfig) error {
	space := cache.PaperSpace()
	t := report.NewTable("Table 1: cache configuration parameters",
		"parameter", "range", "values")
	t.AddRow("cache set size", "2^I, 0 <= I <= 14", 15)
	t.AddRow("cache block size", "2^I bytes, 0 <= I <= 6", 7)
	t.AddRow("associativity", "2^I, 0 <= I <= 4", 5)
	t.AddRow("total configurations", "", space.Count())
	return expRender(ec, t)
}

func expTable2(ec expConfig) error {
	t := report.NewTable("Table 2: trace files used for simulation",
		"application", "paper requests", "requests here", "description")
	for _, app := range workload.Apps() {
		n := ec.requests
		if n == 0 {
			n = app.DefaultRequests()
		}
		t.AddRow(app.Name, app.PaperRequests, n, app.Description)
	}
	return expRender(ec, t)
}

func expTable3(ec expConfig, cells []sweep.Cell) error {
	t := report.NewTable(
		"Table 3: DEW vs per-configuration reference — simulation time and tag comparisons",
		"application", "block", "assoc pair", "DEW time", "ref time", "speedup",
		"DEW cmps (M)", "ref cmps (M)", "reduction %")
	for _, c := range cells {
		t.AddRow(
			c.App.Name, c.BlockSize, fmt.Sprintf("1 & %d", c.Assoc),
			c.DEWTime.Round(time.Microsecond), c.RefTime.Round(time.Microsecond),
			report.Ratio(float64(c.RefTime), float64(c.DEWTime)),
			report.Millions(c.DEWComparisons), report.Millions(c.RefComparisons),
			fmt.Sprintf("%.2f", c.ComparisonReduction()),
		)
	}
	return expRender(ec, t)
}

func expTable4(ec expConfig, cells []sweep.Cell) error {
	t := report.NewTable(
		"Table 4: effectiveness of the properties used in DEW (counts in millions)",
		"application", "assoc pair", "unoptimized evals", "DEW evals", "MRA (P2)",
		"searches", "wave (P3)", "MRE (P4)")
	for _, c := range cells {
		t.AddRow(
			c.App.Name, fmt.Sprintf("1 & %d", c.Assoc),
			report.Millions(c.UnoptimizedEvaluations),
			report.Millions(c.Counters.NodeEvaluations),
			report.Millions(c.Counters.MRACount),
			report.Millions(c.Counters.Searches),
			report.Millions(c.Counters.WaveCount),
			report.Millions(c.Counters.MRECount),
		)
	}
	return expRender(ec, t)
}

func expFigure(ec expConfig, cells []sweep.Cell, n int) error {
	var chart *report.BarChart
	if n == 5 {
		chart = report.NewBarChart("Figure 5: speed-up of DEW over the per-configuration reference", "x")
	} else {
		chart = report.NewBarChart("Figure 6: reduction of tag comparisons in DEW", "%")
	}
	for _, c := range cells {
		if c.Assoc == 16 {
			continue // the paper's figures plot associativities 4 and 8
		}
		label := fmt.Sprintf("%s b%-2d a%d", c.App.Name, c.BlockSize, c.Assoc)
		if n == 5 {
			chart.Add(label, c.Speedup())
		} else {
			chart.Add(label, c.ComparisonReduction())
		}
	}
	if err := chart.Render(ec.env.Stdout); err != nil {
		return err
	}
	_, err := fmt.Fprintln(ec.env.Stdout)
	return err
}
