package main

import (
	"fmt"
	"sort"
	"strings"

	"dew/bench/span"
)

// The traced run reports spans and counters (see the span package and
// the tracer command); this file turns one traced run into per-layer
// metrics.
//
// A span's self time is its interval minus the union of its children's
// intervals. A layer's time is the union of its spans' self intervals:
// wall time during which at least one goroutine was doing that layer's
// own work, so two passes replaying side by side count once. Times are
// reported as shares of the traced run's total (the root span), because
// a workload that bypasses a layer must read exactly zero there.

// layers are the simulator modules the traced run attributes time to;
// cli stands for the tool around them (flags, ranking, rendering).
var layers = []string{"cli", "trace", "engine", "refsim", "core", "sweep", "store", "explore"}

// opFracs are individual operations reported on their own, by span name.
var opFracs = []string{"trace.decode", "trace.ingest", "trace.shard", "trace.fold", "trace.span_wait"}

// counted are the per-layer metrics the traced run reports directly.
var counted = []string{
	"explore.decodes", "explore.folds", "explore.passes",
	"engine.passes",
	"trace.addr_per_run", "trace.addr_per_shardrun", "trace.spans",
	"trace.resident_bound_bytes", "trace.kind_bytes_per_access",
	"core.ref_over_dew_cmps",
	"sweep.cells", "sweep.cells_simulated", "sweep.cells_cached", "sweep.warm_verified",
	"sweep.dew_over_ref_speedup",
	"store.result_hits", "store.result_misses", "store.hit_ratio", "store.stream_hits",
	"store.mem_hits", "store.stores", "store.result_stores", "store.evictions",
	"store.quarantines", "store.bytes", "store.get_result_per_s", "store.put_result_per_s",
}

// residualMetric is the one per-layer metric that needs the timed tool
// runs as well: tool wall time minus the traced in-process total.
const residualMetric = "cli.residual_s"

// knownLayerMetrics lists every per-layer metric the harness can
// report.
func knownLayerMetrics() map[string]bool {
	known := map[string]bool{
		"cli.traced_s": true, "cli.span_coverage_frac": true, residualMetric: true,
		"trace.decode_maccess_per_s": true,
		"engine.parallel_passes":     true, "engine.worker_busy_frac": true, "engine.maccess_pass_per_s": true,
	}
	for _, l := range layers {
		known[l+".self_frac"] = true
		known[l+".alloc_mb"] = true
	}
	for _, op := range opFracs {
		known[op+"_frac"] = true
	}
	for _, c := range counted {
		known[c] = true
	}
	return known
}

type interval struct{ a, b int64 }

// union merges intervals into sorted, disjoint ones.
func union(iv []interval) []interval {
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].a < s[j].a })
	var out []interval
	for _, x := range s {
		if x.b <= x.a {
			continue
		}
		if n := len(out); n > 0 && x.a <= out[n-1].b {
			out[n-1].b = max(out[n-1].b, x.b)
			continue
		}
		out = append(out, x)
	}
	return out
}

func length(iv []interval) int64 {
	var n int64
	for _, x := range union(iv) {
		n += x.b - x.a
	}
	return n
}

// subtract returns x minus the sorted, disjoint holes.
func subtract(x interval, holes []interval) []interval {
	var out []interval
	for _, h := range holes {
		if h.b <= x.a || h.a >= x.b {
			continue
		}
		if h.a > x.a {
			out = append(out, interval{x.a, h.a})
		}
		x.a = max(x.a, h.b)
	}
	if x.b > x.a {
		out = append(out, x)
	}
	return out
}

// layerMetrics computes one traced run's per-layer metrics; a metric of
// a layer the run bypasses is 0.
func layerMetrics(run *span.Run) (map[string]float64, error) {
	spans := run.Spans
	if len(spans) == 0 || spans[0].Parent != -1 {
		return nil, fmt.Errorf("traced run has no root span")
	}
	m := map[string]float64{}
	for name := range knownLayerMetrics() {
		if name != residualMetric {
			m[name] = 0
		}
	}
	kids := make([][]interval, len(spans))
	childAlloc := make([]int64, len(spans))
	for _, s := range spans[1:] {
		kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		if s.Alloc > 0 {
			childAlloc[s.Parent] += s.Alloc
		}
	}
	self := map[string][]interval{} // by layer and by span name
	full := map[string][]interval{} // whole intervals by span name
	busy := map[string]int64{}      // summed durations by span name
	alloc := map[string]int64{}     // self allocation by layer
	for i, s := range spans {
		iv := subtract(interval{s.Start, s.End}, union(kids[i]))
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] = append(self[layer], iv...)
		self[s.Name] = append(self[s.Name], iv...)
		full[s.Name] = append(full[s.Name], interval{s.Start, s.End})
		busy[s.Name] += s.End - s.Start
		if s.Alloc >= 0 {
			alloc[layer] += max(0, s.Alloc-childAlloc[i])
		}
	}

	total := float64(spans[0].End - spans[0].Start)
	m["cli.traced_s"] = total / 1e9
	rootSelf := length(subtract(interval{spans[0].Start, spans[0].End}, union(kids[0])))
	m["cli.span_coverage_frac"] = 1 - float64(rootSelf)/total
	for _, l := range layers {
		m[l+".self_frac"] = float64(length(self[l])) / total
		m[l+".alloc_mb"] = float64(alloc[l]) / (1 << 20)
	}
	for _, op := range opFracs {
		m[op+"_frac"] = float64(length(self[op])) / total
	}

	c := run.Counts
	if ns := c["trace.decode_ns"]; ns > 0 {
		m["trace.decode_maccess_per_s"] = c["trace.decoded_accesses"] / ns * 1e3
	}
	sims := full["engine.simulate"]
	if simBusy := busy["engine.simulate"]; simBusy > 0 {
		m["engine.worker_busy_frac"] = float64(simBusy) / (c["engine.workers"] * float64(length(sims)))
		m["engine.maccess_pass_per_s"] = c["engine.access_passes"] / float64(simBusy) * 1e3
	}
	m["engine.parallel_passes"] = float64(overlapping(sims)) + c["engine.sharded_passes"]
	for _, name := range counted {
		m[name] = c[name]
	}
	return m, nil
}

// overlapping counts the intervals that overlap another one: passes that
// ran side by side.
func overlapping(iv []interval) int {
	n := 0
	for i, x := range iv {
		for j, y := range iv {
			if i != j && x.a < y.b && y.a < x.b {
				n++
				break
			}
		}
	}
	return n
}
