package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
)

// report is the JSON file a full run writes and -compare reads.
type report struct {
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Quick   bool      `json:"quick"`
	Host    host      `json:"host"`
	Results []*result `json:"results"`
}

type host struct {
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func hostInfo() host {
	return host{runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

// errorRateMetric is reported beside the BENCHMARK.json metrics: failed
// checks over attempted ones, which must stay 0.
const errorRateMetric = "error_rate"

// printReport prints every end-to-end metric of every workload — median,
// range and sample count — then each workload's per-layer time split.
func printReport(w io.Writer, spec *benchSpec, rep *report) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tmedian\tunit\tmin\tmax\tn\n")
	for _, res := range rep.Results {
		for _, m := range spec.EndToEnd {
			xs := res.E2E[m.Name]
			if len(xs) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t%s\t-\t-\t0\n", res.Workload, m.Name, m.Unit)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%s\t%.4g\t%.4g\t%d\n", res.Workload, m.Name,
				median(xs), m.Unit, slices.Min(xs), slices.Max(xs), len(xs))
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\tfraction\t\t\t%d\n", res.Workload, errorRateMetric, res.errorRate(), res.Attempted)
	}
	tw.Flush()

	fmt.Fprintf(w, "\nper-layer self time, share of the traced in-process run (median of n traced runs):\n")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\ttraced_s\tresidual_s\t%s\tcoverage\tn\n", strings.Join(layers, "\t"))
	for _, res := range rep.Results {
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g", res.Workload, median(res.Layers["cli.traced_s"]), median(res.Layers[residualMetric]))
		for _, l := range layers {
			fmt.Fprintf(tw, "\t%.3f", median(res.Layers[l+".self_frac"]))
		}
		fmt.Fprintf(tw, "\t%.3f\t%d\n", median(res.Layers["cli.span_coverage_frac"]), len(res.Layers["cli.traced_s"]))
	}
	tw.Flush()
	for _, res := range rep.Results {
		for _, e := range res.Errors {
			fmt.Fprintf(w, "error: %s\n", e)
		}
	}
}

// compareReports prints, for every end-to-end metric of every workload in
// both reports, the base and new medians, the change, the bound and the
// verdict. There is no combined score.
func compareReports(w io.Writer, spec *benchSpec, basePath, newPath string) error {
	var base, cur report
	if err := readJSON(basePath, &base); err != nil {
		return err
	}
	if err := readJSON(newPath, &cur); err != nil {
		return err
	}
	byName := map[string]*result{}
	for _, r := range base.Results {
		byName[r.Workload] = r
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tbase\tnew\tchange\tbound\tverdict\n")
	for _, nr := range cur.Results {
		br, ok := byName[nr.Workload]
		if !ok {
			continue
		}
		for _, m := range spec.EndToEnd {
			v, change := verdict(br.E2E[m.Name], nr.E2E[m.Name], m.Bound, m.Better == "lower")
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.0f%%\t%s\n", nr.Workload, m.Name,
				median(br.E2E[m.Name]), m.Unit, median(nr.E2E[m.Name]), m.Unit, 100*change, 100*m.Bound, v)
		}
		be, ne := br.errorRate(), nr.errorRate()
		v := verdictUnchanged
		switch {
		case ne > be:
			v = verdictWorse
		case ne < be:
			v = verdictBetter
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t\t0\t%s\n", nr.Workload, errorRateMetric, be, ne, v)
	}
	return tw.Flush()
}
