package cli

import (
	"context"
	"fmt"
	"time"

	"dew/internal/core"
	"dew/internal/lrutree"
	"dew/internal/report"
	"dew/internal/sweep"
	"dew/internal/trace"
	"dew/internal/workload"
)

// Extended experiments beyond the paper's evaluation, selected with the
// experiments tool's -ext flag:
//
//	E1 — split instruction/data L1 results per app (the embedded L1 pair)
//	E2 — FIFO vs LRU miss counts from the two single-pass simulators
//	E3 — fractional-simulation estimation error vs exact (related work)
//	E4 — multi-seed variability of the Table 3 headline metrics

// extMaxLog fixes the extended experiments' set-count range at 2^10:
// their tables show specific set counts (64..1024) independent of the
// paper sweep's -maxlog.
const extMaxLog = 10

func expExtended(ctx context.Context, ec expConfig, which int) error {
	switch which {
	case 1:
		return extSplitID(ec)
	case 2:
		return extPolicy(ec)
	case 3:
		return extFractional(ec)
	case 4:
		return extVariability(ctx, ec)
	default:
		return usagef("unknown extended experiment %d (valid: 1-4)", which)
	}
}

func (ec expConfig) requestsFor(app workload.App) uint64 {
	if ec.requests != 0 {
		return ec.requests
	}
	return app.DefaultRequests()
}

// extSplitID simulates separate instruction and data caches from each
// unified app trace — what an embedded L1 pair actually sees.
func extSplitID(ec expConfig) error {
	t := report.NewTable(
		"Extended 1: split I/D caches (DEW pass each; 4-way, 32B blocks, 256 sets shown)",
		"application", "I requests", "I miss%", "D requests", "D miss%")
	const maxLog = extMaxLog
	opt := core.Options{MaxLogSets: maxLog, Assoc: 4, BlockSize: 32}
	for _, app := range workload.Apps() {
		n := ec.requestsFor(app)
		tr := workload.Take(app.Generator(ec.seed), int(n))
		iSim, err := core.Run(opt, trace.OnlyInstructions(tr.NewSliceReader()))
		if err != nil {
			return err
		}
		dSim, err := core.Run(opt, trace.OnlyData(tr.NewSliceReader()))
		if err != nil {
			return err
		}
		im, err := iSim.MissesFor(256, 4)
		if err != nil {
			return err
		}
		dm, err := dSim.MissesFor(256, 4)
		if err != nil {
			return err
		}
		iAcc := iSim.Counters().Accesses
		dAcc := dSim.Counters().Accesses
		t.AddRow(app.Name,
			iAcc, fmt.Sprintf("%.3f", 100*float64(im)/float64(iAcc)),
			dAcc, fmt.Sprintf("%.3f", 100*float64(dm)/float64(dAcc)))
	}
	return expRender(ec, t)
}

// extPolicy contrasts the FIFO (DEW) and LRU (tree) single-pass
// simulators on identical traces, echoing Al-Zoubi et al. (paper
// reference [4]).
func extPolicy(ec expConfig) error {
	t := report.NewTable(
		"Extended 2: FIFO vs LRU misses (4-way, 32B blocks)",
		"application", "sets", "FIFO misses", "LRU misses", "winner")
	const maxLog = extMaxLog
	for _, app := range workload.Apps() {
		n := ec.requestsFor(app)
		tr := workload.Take(app.Generator(ec.seed), int(n))
		fifo, err := core.Run(core.Options{MaxLogSets: maxLog, Assoc: 4, BlockSize: 32},
			tr.NewSliceReader())
		if err != nil {
			return err
		}
		lru, err := lrutree.Run(lrutree.Options{MaxLogSets: maxLog, Assoc: 4, BlockSize: 32},
			tr.NewSliceReader())
		if err != nil {
			return err
		}
		lruMiss := map[int]uint64{}
		for _, res := range lru.Results() {
			if res.Config.Assoc == 4 {
				lruMiss[res.Config.Sets] = res.Misses
			}
		}
		for _, sets := range []int{64, 256, 1024} {
			f, err := fifo.MissesFor(sets, 4)
			if err != nil {
				return err
			}
			l := lruMiss[sets]
			winner := "LRU"
			switch {
			case f < l:
				winner = "FIFO"
			case f == l:
				winner = "tie"
			}
			t.AddRow(app.Name, sets, f, l, winner)
		}
	}
	return expRender(ec, t)
}

// extFractional quantifies the fractional-simulation trade the paper's
// related work describes: simulate 10% of the trace, scale, compare.
func extFractional(ec expConfig) error {
	t := report.NewTable(
		"Extended 3: fractional simulation (10% windows) vs exact (4-way, 32B, 256 sets)",
		"application", "exact misses", "estimated", "error %", "exact time", "sampled time")
	const maxLog = extMaxLog
	opt := core.Options{MaxLogSets: maxLog, Assoc: 4, BlockSize: 32}
	for _, app := range workload.Apps() {
		n := ec.requestsFor(app)
		tr := workload.Take(app.Generator(ec.seed), int(n))

		start := time.Now()
		exact, err := core.Run(opt, tr.NewSliceReader())
		if err != nil {
			return err
		}
		exactTime := time.Since(start)

		window := n / 10
		if window == 0 {
			window = 1
		}
		sampled, err := trace.WindowSample(tr.NewSliceReader(), window/10+1, window)
		if err != nil {
			return err
		}
		start = time.Now()
		frac, err := core.Run(opt, sampled)
		if err != nil {
			return err
		}
		fracTime := time.Since(start)

		e, err := exact.MissesFor(256, 4)
		if err != nil {
			return err
		}
		f, err := frac.MissesFor(256, 4)
		if err != nil {
			return err
		}
		// Cold misses do not scale with trace length (the footprint is
		// what it is), so the standard estimator profiles both streams
		// cheaply and scales only the warm misses.
		fullProf, err := trace.ProfileReader(tr.NewSliceReader(), 32)
		if err != nil {
			return err
		}
		sampledAgain, err := trace.WindowSample(tr.NewSliceReader(), window/10+1, window)
		if err != nil {
			return err
		}
		sampProf, err := trace.ProfileReader(sampledAgain, 32)
		if err != nil {
			return err
		}
		warm := float64(f) - float64(sampProf.UniqueBlocks)
		if warm < 0 {
			warm = 0
		}
		scale := float64(exact.Counters().Accesses) / float64(frac.Counters().Accesses)
		est := fullProf.UniqueBlocks + uint64(warm*scale)
		errPct := 0.0
		if e > 0 {
			errPct = 100 * (float64(est) - float64(e)) / float64(e)
		}
		t.AddRow(app.Name, e, est, fmt.Sprintf("%+.1f", errPct),
			exactTime.Round(time.Microsecond), fracTime.Round(time.Microsecond))
	}
	return expRender(ec, t)
}

// extVariability replicates one Table 3 cell per app across seeds to
// show the headline ratios are not seed artifacts.
func extVariability(ctx context.Context, ec expConfig) error {
	seeds := ec.seeds
	if seeds < 3 {
		seeds = 3
	}
	t := report.NewTable(
		fmt.Sprintf("Extended 4: variability across %d seeds (B=16, A=1&4)", seeds),
		"application", "speedup min", "speedup max", "reduction% min", "reduction% max")
	var params []sweep.Params
	for _, app := range workload.Apps() {
		params = append(params, sweep.Params{
			App: app, Requests: ec.requestsFor(app),
			BlockSize: 16, Assoc: 4, MaxLogSets: extMaxLog,
		})
	}
	aggs, err := (sweep.Runner{Workers: ec.workers, Cache: ec.cache}).RunSeeds(ctx, params, sweep.Seeds(ec.seed, seeds))
	if err != nil {
		return err
	}
	for _, agg := range aggs {
		sMin, sMax := agg.SpeedupRange()
		rMin, rMax := agg.ReductionRange()
		t.AddRow(agg.App.Name,
			fmt.Sprintf("%.2f", sMin), fmt.Sprintf("%.2f", sMax),
			fmt.Sprintf("%.2f", rMin), fmt.Sprintf("%.2f", rMax))
	}
	return expRender(ec, t)
}
