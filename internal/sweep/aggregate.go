package sweep

import (
	"context"
	"fmt"
)

// Aggregate is the outcome of one comparison cell replicated across
// several trace seeds, for reporting variability (the paper reports
// single runs; multi-seed runs show the shapes are not seed artifacts).
type Aggregate struct {
	Params
	// Cells holds one result per seed, in seed order.
	Cells []Cell
}

// RunSeeds replicates every cell across the seeds — each params entry
// once per seed, its Seed replaced — and runs the whole params × seeds
// matrix as one RunCells batch, so the replicas share the worker pool,
// the result-tier probe and its sampled warm check. The aggregates come
// back in params order, each holding its cells in seed order.
func (r Runner) RunSeeds(ctx context.Context, params []Params, seeds []uint64) ([]Aggregate, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sweep: RunSeeds needs at least one seed")
	}
	batch := make([]Params, 0, len(params)*len(seeds))
	for _, p := range params {
		for _, seed := range seeds {
			ps := p
			ps.Seed = seed
			batch = append(batch, ps)
		}
	}
	cells, err := r.RunCells(ctx, batch)
	if err != nil {
		return nil, err
	}
	aggs := make([]Aggregate, len(params))
	for i, p := range params {
		aggs[i] = Aggregate{Params: p, Cells: cells[i*len(seeds) : (i+1)*len(seeds) : (i+1)*len(seeds)]}
	}
	return aggs, nil
}

// Combined sums the per-seed measurements into one Cell: total times and
// comparison counts across all seeds, so derived ratios are the
// request-weighted means. Counters and results are taken from the first
// seed (they are per-trace quantities, not aggregable meaningfully).
func (a Aggregate) Combined() Cell {
	if len(a.Cells) == 0 {
		return Cell{Params: a.Params}
	}
	out := a.Cells[0]
	for _, c := range a.Cells[1:] {
		out.Requests += c.Requests
		out.DEWTime += c.DEWTime
		out.RefTime += c.RefTime
		out.ShardTime += c.ShardTime
		out.ShardRuns += c.ShardRuns
		out.RefShardTime += c.RefShardTime
		out.RefParallel += c.RefParallel
		out.DEWComparisons += c.DEWComparisons
		out.RefComparisons += c.RefComparisons
		out.Verified += c.Verified
	}
	return out
}

// SpeedupRange returns the minimum and maximum per-seed speed-up.
func (a Aggregate) SpeedupRange() (min, max float64) {
	for i, c := range a.Cells {
		s := c.Speedup()
		if i == 0 || s < min {
			min = s
		}
		if i == 0 || s > max {
			max = s
		}
	}
	return min, max
}

// ReductionRange returns the minimum and maximum per-seed comparison
// reduction percentage.
func (a Aggregate) ReductionRange() (min, max float64) {
	for i, c := range a.Cells {
		r := c.ComparisonReduction()
		if i == 0 || r < min {
			min = r
		}
		if i == 0 || r > max {
			max = r
		}
	}
	return min, max
}

// Seeds returns consecutive seeds starting at base, a convenience for
// the -seeds CLI flag.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}
