package cli

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current tools' output")

// goldenCase is one in-process tool invocation whose normalized stdout
// is pinned in testdata/golden/<name>.txt. In args, $T names the seeded
// .din trace, $G the same trace as gzipped delta binary and $C a cache
// directory shared by the cases that name it, in list order.
type goldenCase struct {
	name string
	tool string
	args []string
}

var goldenCases = []goldenCase{
	{"tracegen-list", "tracegen", []string{"-list"}},
	{"dewsim", "dewsim", []string{"-trace", "$T", "-assoc", "4", "-block", "16", "-maxlog", "6"}},
	{"dewsim-counters", "dewsim", []string{"-trace", "$T", "-assoc", "4", "-block", "16", "-maxlog", "6", "-counters", "-csv"}},
	{"dewsim-stream-mem", "dewsim", []string{"-trace", "$T", "-assoc", "4", "-blocks", "4,16,64", "-maxlog", "6", "-stream-mem", "65536", "-csv"}},
	{"dewsim-shards", "dewsim", []string{"-trace", "$G", "-assoc", "8", "-block", "16", "-maxlog", "7", "-shards", "2", "-csv"}},
	{"dewsim-lru", "dewsim", []string{"-trace", "$T", "-assoc", "4", "-block", "16", "-maxlog", "6", "-policy", "LRU", "-csv"}},
	{"refsim-wb-nwa", "refsim", []string{"-trace", "$T", "-sets", "64", "-assoc", "2", "-block", "16", "-write", "wb", "-alloc", "nwa"}},
	{"refsim-shards", "refsim", []string{"-trace", "$G", "-sets", "64", "-assoc", "4", "-block", "16", "-write", "wt", "-alloc", "nwa", "-shards", "2"}},
	{"explore", "explore", []string{"-trace", "$T", "-maxlog-sets", "6", "-maxlog-block", "5", "-maxlog-assoc", "3", "-workers", "2", "-csv", "-quiet"}},
	{"experiments-table34", "experiments", []string{"-table", "3,4", "-requests", "20000", "-maxlog", "6", "-csv", "-quiet"}},
	{"experiments-ext2", "experiments", []string{"-ext", "2", "-requests", "20000", "-maxlog", "6", "-csv", "-quiet"}},
	{"dinero", "dinero", []string{"-trace", "$T", "-l1-usize", "4k", "-l1-ubsize", "16", "-l1-uassoc", "2", "-l1-urepl", "f"}},
	{"dewsim-cache-cold", "dewsim", []string{"-trace", "$T", "-assoc", "4", "-blocks", "8,32", "-maxlog", "6", "-cache", "$C", "-csv"}},
	{"dewsim-cache-warm", "dewsim", []string{"-trace", "$T", "-assoc", "4", "-blocks", "8,32", "-maxlog", "6", "-cache", "$C", "-csv"}},
}

// goldenProvenance names what a case must print before normalization
// drops it: the warm rerun must simulate nothing.
var goldenProvenance = map[string]string{
	"dewsim-cache-warm": "fully result-cached (0 simulations, 0 trace decodes)",
}

var goldenTools = map[string]func(context.Context, Env, []string) error{
	"tracegen":    TraceGen,
	"dewsim":      DewSim,
	"refsim":      RefSim,
	"explore":     Explore,
	"experiments": Experiments,
	"dinero": func(ctx context.Context, env Env, args []string) error {
		return Dinero(ctx, env, strings.NewReader(""), args)
	},
}

// TestGolden pins every tool's normalized stdout on small seeded traces.
// Regenerate with `go test ./internal/cli -run Golden -update`, and only
// when an output is meant to change.
func TestGolden(t *testing.T) {
	t.Setenv("DEW_CACHE", "")
	dir := t.TempDir()
	vars := map[string]string{
		"$T": filepath.Join(dir, "cjpeg.din"),
		"$G": filepath.Join(dir, "cjpeg.dtb.gz"),
		"$C": filepath.Join(dir, "cache"),
	}
	for _, path := range []string{vars["$T"], vars["$G"]} {
		if _, _, err := run(t, TraceGen, "-app", "CJPEG", "-n", "20000", "-seed", "1", "-o", path); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range goldenCases {
		args := make([]string, len(c.args))
		for i, a := range c.args {
			if v, ok := vars[a]; ok {
				a = v
			}
			args[i] = a
		}
		out, stderr, err := run(t, goldenTools[c.tool], args...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, stderr)
		}
		if p := goldenProvenance[c.name]; !strings.Contains(out, p) {
			t.Errorf("%s: stdout lacks %q:\n%s", c.name, p, out)
		}
		got := normalizeOutput(c.tool, []byte(out))
		path := filepath.Join("testdata", "golden", c.name+".txt")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create it)", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: stdout differs from %s\n--- got\n%s--- want\n%s", c.name, path, got, want)
		}
	}
}

// normalizeOutput strips the parts of a tool's stdout that differ
// between two exact runs — wall times and provenance — so the rest can
// be compared byte for byte:
//
//   - dewsim: the "simulated ..." footer (elapsed time and mode);
//   - refsim: the "replay:" line (ingest/replay times, shard fan-out);
//   - experiments -csv: every table column whose header names a time or
//     a speedup, and the whole Figure 5 block (speedups are time ratios);
//   - every other tool: nothing.
//
// These are the benchmark oracle's rules (bench/oracle.go).
func normalizeOutput(tool string, out []byte) []byte {
	switch tool {
	case "dewsim":
		return dropLines(out, "simulated ")
	case "refsim":
		return dropLines(out, "replay:")
	case "experiments":
		return normalizeExperiments(out)
	}
	return out
}

func dropLines(out []byte, prefix string) []byte {
	var b bytes.Buffer
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(prefix)) {
			b.Write(line)
		}
	}
	return b.Bytes()
}

// normalizeExperiments walks the blank-line-separated blocks the
// experiments tool prints (one per table or figure).
func normalizeExperiments(out []byte) []byte {
	var b bytes.Buffer
	for _, block := range strings.SplitAfter(string(out), "\n\n") {
		if strings.HasPrefix(block, "Figure 5:") {
			continue
		}
		b.WriteString(dropTimeColumns(block))
	}
	return b.Bytes()
}

// dropTimeColumns removes timing columns from a CSV table block. Blocks
// without such a column — charts, tables of counts — are returned as
// they are.
func dropTimeColumns(block string) string {
	header, _, _ := strings.Cut(block, "\n")
	var drop []bool
	dropping := false
	for _, h := range strings.Split(header, ",") {
		h = strings.ToLower(h)
		d := strings.Contains(h, "time") || strings.Contains(h, "speedup")
		drop = append(drop, d)
		dropping = dropping || d
	}
	if !dropping {
		return block
	}
	body := strings.TrimRight(block, "\n")
	r := csv.NewReader(strings.NewReader(body))
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		return block
	}
	var b strings.Builder
	w := csv.NewWriter(&b)
	for _, rec := range recs {
		var keep []string
		for i, f := range rec {
			if i >= len(drop) || !drop[i] {
				keep = append(keep, f)
			}
		}
		w.Write(keep)
	}
	w.Flush()
	return strings.TrimSuffix(b.String(), "\n") + block[len(body):]
}
