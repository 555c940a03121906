package cli

import (
	"bytes"
	"context"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// run executes a tool function with buffered streams.
func run(t *testing.T, tool func(context.Context, Env, []string) error, args ...string) (string, string, error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err := tool(context.Background(), Env{Stdout: &out, Stderr: &errBuf}, args)
	return out.String(), errBuf.String(), err
}

func TestDewSimApp(t *testing.T) {
	out, _, err := run(t, DewSim,
		"-app", "DJPEG", "-n", "20000", "-assoc", "4", "-block", "16", "-maxlog", "5", "-counters")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sets", "missRate",
		"simulated 12 configurations over 20000 requests",
		"P2 MRA cut-offs", "tag comparisons", "tree storage",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestDewSimCSV(t *testing.T) {
	out, _, err := run(t, DewSim,
		"-app", "CJPEG", "-n", "5000", "-maxlog", "3", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "sets,assoc,block,") {
		t.Errorf("CSV header missing: %q", out[:60])
	}
}

func TestDewSimSharded(t *testing.T) {
	// The sharded pass must emit the same result table as the
	// monolithic pass (only the timing line differs).
	args := []string{"-app", "G721 Enc", "-n", "10000", "-assoc", "4", "-block", "16", "-maxlog", "6", "-csv"}
	mono, _, err := run(t, DewSim, args...)
	if err != nil {
		t.Fatal(err)
	}
	sharded, _, err := run(t, DewSim, append(args, "-shards", "4")...)
	if err != nil {
		t.Fatal(err)
	}
	tableOf := func(s string) string { return s[:strings.Index(s, "\nsimulated ")] }
	if tableOf(mono) != tableOf(sharded) {
		t.Errorf("sharded table differs from monolithic:\n%s\nvs\n%s", tableOf(sharded), tableOf(mono))
	}
	if !strings.Contains(sharded, "sharded across 4 substreams") {
		t.Error("sharded mode not echoed")
	}
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-shards", "4", "-counters"); err == nil || !IsUsage(err) {
		t.Error("-shards with -counters should be a usage error")
	}
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-shards", "4", "-no-mra"); err == nil || !IsUsage(err) {
		t.Error("-shards with an ablation should be a usage error")
	}
}

// TestDewSimBlockLadder drives several block sizes off one decode: the
// concatenated per-block tables must match the single-block runs row
// for row, monolithic and sharded.
func TestDewSimBlockLadder(t *testing.T) {
	base := []string{"-app", "DJPEG", "-n", "10000", "-assoc", "4", "-maxlog", "5", "-csv"}
	var want string
	for _, block := range []string{"4", "16", "64"} {
		out, _, err := run(t, DewSim, append(base, "-block", block)...)
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.TrimRight(out[:strings.Index(out, "\nsimulated ")], "\n")
		if want == "" {
			want = rows
		} else {
			// Drop the repeated CSV header before concatenating.
			want += "\n" + rows[strings.Index(rows, "\n")+1:]
		}
	}
	for _, c := range []struct {
		extra []string
		prov  string
	}{
		{[]string{"-blocks", "64,4,16,16"}, "3 dew passes over a fold-derived block ladder streamed"}, // order and duplicates are normalized
		{[]string{"-blocks", "4,16,64", "-shards", "4"}, "3 dew passes over a fold-derived block ladder sharded across 4 substreams, streamed"},
	} {
		out, _, err := run(t, DewSim, append(base, c.extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		if rows := strings.TrimRight(out[:strings.Index(out, "\nsimulated ")], "\n"); rows != want {
			t.Errorf("%v: ladder table differs from single-block runs:\n%s\nvs\n%s", c.extra, rows, want)
		}
		if !strings.Contains(out, c.prov) {
			t.Errorf("%v: ladder provenance missing: %s", c.extra, out)
		}
	}
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-blocks", "4,16", "-counters"); err == nil || !IsUsage(err) {
		t.Error("-blocks with -counters should be a usage error")
	}
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-blocks", "4,x"); err == nil || !IsUsage(err) {
		t.Error("malformed -blocks should be a usage error")
	}
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-blocks", "4,24"); err == nil {
		t.Error("non-power-of-two -blocks entry should fail")
	}
}

func TestDewSimEngineFlag(t *testing.T) {
	// The lrutree engine under LRU must emit the same result table as
	// the dew engine, monolithic and sharded.
	args := []string{"-app", "DJPEG", "-n", "8000", "-assoc", "2", "-block", "8",
		"-maxlog", "5", "-policy", "LRU", "-csv"}
	dew, _, err := run(t, DewSim, args...)
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-engine", "lrutree"},
		{"-engine", "lrutree", "-shards", "2"},
	} {
		tree, _, err := run(t, DewSim, append(args, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		tableOf := func(s string) string { return s[:strings.Index(s, "\nsimulated ")] }
		if tableOf(dew) != tableOf(tree) {
			t.Errorf("%v: lrutree table differs from dew:\n%s\nvs\n%s", extra, tableOf(tree), tableOf(dew))
		}
	}
	if _, _, err := run(t, DewSim, append(args, "-engine", "nope")...); err == nil {
		t.Error("unknown engine should fail")
	}
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-engine", "lrutree", "-counters"); err == nil || !IsUsage(err) {
		t.Error("-counters with a non-dew engine should be a usage error")
	}
}

func TestDewSimLRUPolicy(t *testing.T) {
	out, _, err := run(t, DewSim,
		"-app", "CJPEG", "-n", "5000", "-maxlog", "3", "-policy", "LRU")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "LRU") {
		t.Error("policy not echoed")
	}
}

func TestDewSimErrors(t *testing.T) {
	if _, _, err := run(t, DewSim); err == nil || !IsUsage(err) {
		t.Errorf("no input should be a usage error, got %v", err)
	}
	if _, _, err := run(t, DewSim, "-app", "NOPE"); err == nil {
		t.Error("unknown app should fail")
	}
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-assoc", "3"); err == nil {
		t.Error("bad assoc should fail")
	}
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-policy", "Random"); err == nil {
		t.Error("random policy should fail")
	}
	if _, _, err := run(t, DewSim, "-bogus-flag"); err == nil || !IsUsage(err) {
		t.Error("bad flag should be a usage error")
	}
}

func TestRefSimApp(t *testing.T) {
	out, _, err := run(t, RefSim,
		"-app", "G721 Enc", "-n", "20000", "-sets", "64", "-assoc", "2", "-block", "16",
		"-policy", "LRU", "-write", "write-through", "-alloc", "no-write-allocate")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"LRU replacement", "write-through", "no-write-allocate",
		"accesses:", "misses:", "compulsory:", "bytes to memory:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
}

func TestRefSimErrors(t *testing.T) {
	if _, _, err := run(t, RefSim, "-app", "CJPEG", "-sets", "3"); err == nil {
		t.Error("bad sets should fail")
	}
	if _, _, err := run(t, RefSim, "-app", "CJPEG", "-policy", "MRU"); err == nil {
		t.Error("bad policy should fail")
	}
	if _, _, err := run(t, RefSim, "-app", "CJPEG", "-write", "sometimes"); err == nil {
		t.Error("bad write policy should fail")
	}
	if _, _, err := run(t, RefSim, "-app", "CJPEG", "-alloc", "maybe"); err == nil {
		t.Error("bad alloc policy should fail")
	}
	if _, _, err := run(t, RefSim); err == nil || !IsUsage(err) {
		t.Error("no input should be a usage error")
	}
}

func TestTraceGenList(t *testing.T) {
	out, _, err := run(t, TraceGen, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"CJPEG", "DJPEG", "G721 Enc", "MPEG2 Dec"} {
		if !strings.Contains(out, app) {
			t.Errorf("list missing %s", app)
		}
	}
}

func TestTraceGenWriteAndProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.dtb.gz")
	out, _, err := run(t, TraceGen,
		"-app", "DJPEG", "-n", "5000", "-o", path, "-profile", "-profile-block", "16")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote 5000 accesses") {
		t.Errorf("write confirmation missing: %s", out)
	}
	if !strings.Contains(out, "5000 accesses (") || !strings.Contains(out, "footprint:") {
		t.Errorf("profile missing: %s", out)
	}

	// The written file round-trips through dewsim.
	out, _, err = run(t, DewSim, "-trace", path, "-maxlog", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "over 5000 requests") {
		t.Errorf("dewsim on generated file: %s", out)
	}
}

func TestTraceGenErrors(t *testing.T) {
	if _, _, err := run(t, TraceGen, "-app", "CJPEG"); err == nil || !IsUsage(err) {
		t.Error("no -o/-profile should be a usage error")
	}
	if _, _, err := run(t, TraceGen, "-app", "NOPE", "-profile"); err == nil {
		t.Error("unknown app should fail")
	}
	if _, _, err := run(t, TraceGen, "-app", "CJPEG", "-o", "/nonexistent-dir/x.din"); err == nil {
		t.Error("unwritable output should fail")
	}
}

func TestExploreSmall(t *testing.T) {
	out, _, err := run(t, Explore,
		"-app", "DJPEG", "-n", "10000", "-maxlog-sets", "4", "-maxlog-block", "2",
		"-maxlog-assoc", "1", "-top", "3", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	// Space: 5 × 3 × 2 = 30 configurations, 3 wide passes.
	if !strings.Contains(out, "explored 30 configurations") {
		t.Errorf("coverage line missing: %s", out)
	}
	if !strings.Contains(out, "best 3 by modeled energy") {
		t.Errorf("ranking missing: %s", out)
	}
	// Fold provenance: 3 block sizes from a single raw-trace decode.
	if !strings.Contains(out, "1 trace decode + 2 folds") {
		t.Errorf("fold provenance missing: %s", out)
	}
}

func TestExploreCSVAndBudget(t *testing.T) {
	out, _, err := run(t, Explore,
		"-app", "DJPEG", "-n", "5000", "-maxlog-sets", "3", "-maxlog-block", "1",
		"-maxlog-assoc", "1", "-csv", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "sets,assoc,block,") {
		t.Errorf("CSV header missing: %q", out[:40])
	}
	lines := strings.Count(strings.TrimSpace(out), "\n")
	if lines != 16 { // header + 4×2×2 configs
		t.Errorf("CSV rows = %d, want 16", lines)
	}

	out, _, err = run(t, Explore,
		"-app", "DJPEG", "-n", "5000", "-maxlog-sets", "3", "-maxlog-block", "1",
		"-maxlog-assoc", "1", "-max-size", "8", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "within the 8B budget") {
		t.Errorf("budget filter missing: %s", out)
	}
}

func TestExploreKinds(t *testing.T) {
	out, _, err := run(t, Explore,
		"-app", "DJPEG", "-n", "10000", "-maxlog-sets", "4", "-maxlog-block", "2",
		"-maxlog-assoc", "1", "-top", "3", "-kinds", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	mix := lineWith(out, "request mix:")
	if mix == "" || !strings.Contains(mix, "stores priced at 1.15x") {
		t.Errorf("kind mix line missing or unpriced: %q", mix)
	}
	if !strings.Contains(out, "explored 30 configurations") {
		t.Errorf("coverage line missing: %s", out)
	}
	// The reported totals account for every request exactly.
	var sum, n int
	for _, f := range strings.Fields(mix) {
		if v, err := strconv.Atoi(f); err == nil {
			sum += v
			n++
		}
	}
	if n != 3 || sum != 10000 {
		t.Errorf("kind totals %q do not sum to the trace length", mix)
	}
}

func TestExploreErrors(t *testing.T) {
	if _, _, err := run(t, Explore, "-quiet"); err == nil || !IsUsage(err) {
		t.Error("no input should be a usage error")
	}
	if _, _, err := run(t, Explore, "-app", "CJPEG", "-maxlog-sets", "99"); err == nil {
		t.Error("oversized space should fail")
	}
	if _, _, err := run(t, Explore, "-trace", "/nonexistent.din", "-quiet"); err == nil {
		t.Error("missing trace file should fail")
	}
}

func TestExperimentsTables12(t *testing.T) {
	out, _, err := run(t, Experiments, "-table", "1,2", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1: cache configuration parameters") {
		t.Error("Table 1 missing")
	}
	if !strings.Contains(out, "525") {
		t.Error("configuration count missing")
	}
	if !strings.Contains(out, "Table 2: trace files") || !strings.Contains(out, "3738851450") {
		t.Error("Table 2 missing or wrong")
	}
}

func TestExperimentsSmallTable3AndFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-backed experiment test skipped in -short mode")
	}
	out, _, err := run(t, Experiments,
		"-table", "3", "-figure", "5,6", "-requests", "20000", "-maxlog", "6", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 3:", "speedup", "reduction %",
		"Figure 5: speed-up", "Figure 6: reduction",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// 54 cells plus header/separator rows.
	if got := strings.Count(out, "| CJPEG"); got != 9 {
		t.Errorf("CJPEG rows in Table 3 = %d, want 9", got)
	}
}

func TestExperimentsTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-backed experiment test skipped in -short mode")
	}
	out, _, err := run(t, Experiments,
		"-table", "4", "-requests", "20000", "-maxlog", "6", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 4: effectiveness") {
		t.Error("Table 4 missing")
	}
	// Unoptimized evaluations are exactly 2 × 7 levels × 20000 = 0.28M.
	if !strings.Contains(out, "0.28") {
		t.Errorf("unoptimized evaluation constant missing:\n%s", out)
	}
}

// TestExperimentsTable4ReusesTable3 runs Table 4 beside Table 3: its
// cells are a subset of Table 3's, so the run is one sweep, and its
// CSV block must equal that of Table 4 run alone.
func TestExperimentsTable4ReusesTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-backed experiment test skipped in -short mode")
	}
	both, errBoth, err := run(t, Experiments, "-table", "3,4", "-requests", "5000", "-maxlog", "6", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	alone, _, err := run(t, Experiments, "-table", "4", "-requests", "5000", "-maxlog", "6", "-csv", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	const header = "application,assoc pair,"
	i := strings.Index(both, header)
	if i < 0 || !strings.HasPrefix(alone, header) {
		t.Fatalf("Table 4 CSV header missing:\n%s\n%s", both, alone)
	}
	if block := both[i:]; block != alone {
		t.Errorf("Table 4 block of -table 3,4 differs from -table 4 alone:\n%s\n%s", block, alone)
	}
	if n := strings.Count(errBoth, "sweep of "); n != 1 {
		t.Errorf("-table 3,4 ran %d sweeps, want 1:\n%s", n, errBoth)
	}
}

func TestExperimentsSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-backed experiment test skipped in -short mode")
	}
	// The -shards knob must run (and verify) the sharded pass on every
	// cell; the progress log reports its per-cell fan-out and speedup.
	out, errOut, err := run(t, Experiments,
		"-table", "4", "-requests", "15000", "-maxlog", "6", "-shards", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 4: effectiveness") {
		t.Error("Table 4 missing")
	}
	if !strings.Contains(errOut, "4-shard pass") {
		t.Errorf("progress log missing sharded-pass report:\n%s", errOut)
	}
	if _, _, err := run(t, Experiments, "-table", "1", "-shards", "-2"); err == nil {
		t.Error("negative -shards should fail")
	}
	// -shards 0 resolves to the machine's fan-out and must still verify.
	if _, _, err := run(t, Experiments, "-table", "2", "-shards", "0", "-quiet"); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentsSelectionErrors(t *testing.T) {
	if _, _, err := run(t, Experiments); err == nil || !IsUsage(err) {
		t.Error("empty selection should be a usage error")
	}
	if _, _, err := run(t, Experiments, "-table", "7"); err == nil {
		t.Error("out-of-range table should fail")
	}
	if _, _, err := run(t, Experiments, "-figure", "x"); err == nil {
		t.Error("non-numeric figure should fail")
	}
}

func TestExperimentsCSVMode(t *testing.T) {
	out, _, err := run(t, Experiments, "-table", "2", "-csv", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "application,paper requests") {
		t.Errorf("CSV table missing: %s", out)
	}
}

func TestExperimentsExtended(t *testing.T) {
	if testing.Short() {
		t.Skip("extended experiments skipped in -short mode")
	}
	out, _, err := run(t, Experiments,
		"-ext", "1,2,3", "-requests", "30000", "-maxlog", "6", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Extended 1: split I/D caches",
		"Extended 2: FIFO vs LRU",
		"Extended 3: fractional simulation",
		"| CJPEG",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestExperimentsExtendedVariability(t *testing.T) {
	if testing.Short() {
		t.Skip("extended experiments skipped in -short mode")
	}
	out, _, err := run(t, Experiments,
		"-ext", "4", "-requests", "20000", "-maxlog", "5", "-seeds", "2", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Extended 4: variability across 3 seeds") {
		t.Errorf("E4 header missing (seeds floor is 3): %s", out)
	}
	if !strings.Contains(out, "speedup min") {
		t.Error("columns missing")
	}
}

func TestExperimentsMultiSeedTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep skipped in -short mode")
	}
	out, _, err := run(t, Experiments,
		"-table", "3", "-requests", "5000", "-maxlog", "4", "-seeds", "2", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	// Combined cells report summed requests: check a plausibility marker.
	if !strings.Contains(out, "Table 3:") {
		t.Error("Table 3 missing")
	}
	if _, _, err := run(t, Experiments, "-table", "1", "-seeds", "0"); err == nil {
		t.Error("-seeds 0 should fail")
	}
}

// refStatLines are the output lines the monolithic per-access replay
// and the kind-preserving sharded stream replay must agree on, bit for
// bit — the full record, per-kind counts and traffic included.
var refStatLines = []string{
	"accesses:", "misses:", "compulsory:", "by kind:", "evictions:",
	"tag comparisons:", "bytes from memory:", "bytes to memory:",
}

func TestRefSimSharded(t *testing.T) {
	// The sharded kind-preserving stream replay must agree with the
	// monolithic per-access replay on the full statistics record.
	args := []string{"-app", "G721 Enc", "-n", "15000", "-sets", "64", "-assoc", "2", "-block", "16"}
	mono, _, err := run(t, RefSim, args...)
	if err != nil {
		t.Fatal(err)
	}
	sharded, _, err := run(t, RefSim, append(args, "-shards", "4")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sharded, "4 set-substreams in parallel") {
		t.Errorf("sharded replay not echoed:\n%s", sharded)
	}
	for _, line := range refStatLines {
		want := lineWith(mono, line)
		got := lineWith(sharded, line)
		if want == "" || got != want {
			t.Errorf("%s differs: %q vs %q", line, got, want)
		}
	}
	// More shards than sets: rounding caps the fan-out at the set count.
	capped, _, err := run(t, RefSim, "-app", "CJPEG", "-n", "5000", "-sets", "4", "-assoc", "2",
		"-block", "16", "-shards", "64")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(capped, "4 set-substreams in parallel") {
		t.Errorf("fan-out not capped at the set count:\n%s", capped)
	}
	// Random replacement falls back to the monolithic replay but still runs.
	random, _, err := run(t, RefSim, append(args, "-shards", "4", "-policy", "Random")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(random, "monolithic fallback") {
		t.Errorf("Random fallback not echoed:\n%s", random)
	}
}

func TestRefSimShardedWritePolicies(t *testing.T) {
	// The write/alloc axes on the sharded stream path: every pairing
	// must reproduce the per-access replay's statistics and traffic
	// exactly (the kind channel preserves what a write-policy replay
	// observes per run).
	base := []string{"-app", "G721 Enc", "-n", "15000", "-sets", "64", "-assoc", "2",
		"-block", "16", "-policy", "LRU", "-store-bytes", "2"}
	for _, combo := range [][]string{
		{"-write", "wb", "-alloc", "wa"},
		{"-write", "wb", "-alloc", "nwa"},
		{"-write", "wt", "-alloc", "wa"},
		{"-write", "write-through", "-alloc", "no-write-allocate"},
	} {
		args := append(append([]string{}, base...), combo...)
		mono, _, err := run(t, RefSim, args...)
		if err != nil {
			t.Fatalf("%v: %v", combo, err)
		}
		sharded, _, err := run(t, RefSim, append(args, "-shards", "4")...)
		if err != nil {
			t.Fatalf("%v -shards 4: %v", combo, err)
		}
		if !strings.Contains(sharded, "4 set-substreams in parallel") {
			t.Errorf("%v: sharded replay not echoed:\n%s", combo, sharded)
		}
		for _, line := range refStatLines {
			want := lineWith(mono, line)
			got := lineWith(sharded, line)
			if want == "" || got != want {
				t.Errorf("%v: %s differs: %q vs %q", combo, line, got, want)
			}
		}
	}
	// Bad spellings are still usage errors, sharded or not.
	if _, _, err := run(t, RefSim, append(append([]string{}, base...), "-shards", "4", "-write", "sideways")...); err == nil || !IsUsage(err) {
		t.Error("bad -write should be a usage error")
	}
	if _, _, err := run(t, RefSim, append(append([]string{}, base...), "-alloc", "sometimes")...); err == nil || !IsUsage(err) {
		t.Error("bad -alloc should be a usage error")
	}
}

func TestDewSimWritePolicy(t *testing.T) {
	// The write axes thread through dewsim's engine fast path: a ref
	// write-policy replay over the kind-preserving stream must match
	// refsim's per-access numbers, and traffic is reported per rung.
	out, _, err := run(t, DewSim, "-app", "G721 Enc", "-n", "10000", "-engine", "ref",
		"-minlog", "6", "-maxlog", "6", "-assoc", "2", "-block", "16",
		"-write", "wt", "-alloc", "nwa", "-store-bytes", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "write-policy write-through/no-write-allocate") {
		t.Errorf("write-policy mode not echoed:\n%s", out)
	}
	traffic := lineWith(out, "traffic B=16:")
	if traffic == "" || strings.Contains(traffic, " 0 bytes from memory, 0 to memory") {
		t.Errorf("no traffic reported: %q", traffic)
	}
	ref, _, err := run(t, RefSim, "-app", "G721 Enc", "-n", "10000", "-sets", "64",
		"-assoc", "2", "-block", "16", "-write", "wt", "-alloc", "nwa", "-store-bytes", "2")
	if err != nil {
		t.Fatal(err)
	}
	missLine := lineWith(ref, "misses:")
	wantMisses := strings.Fields(missLine)[1]
	var row string
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) > 11 && f[0] == "|" && f[1] == "64" {
			row = l
			break
		}
	}
	if row == "" || strings.Fields(row)[11] != wantMisses {
		t.Errorf("dewsim row %q does not carry refsim's %s misses", row, wantMisses)
	}
	// Sharded write-policy replay agrees too.
	shardOut, _, err := run(t, DewSim, "-app", "G721 Enc", "-n", "10000", "-engine", "ref",
		"-minlog", "6", "-maxlog", "6", "-assoc", "2", "-block", "16",
		"-write", "wt", "-alloc", "nwa", "-store-bytes", "2", "-shards", "4")
	if err != nil {
		t.Fatal(err)
	}
	if got := lineWith(shardOut, "traffic B=16:"); got != traffic {
		t.Errorf("sharded traffic %q != stream traffic %q", got, traffic)
	}
	// Multi-configuration engines cannot simulate write policies.
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-n", "1000", "-write", "wt"); err == nil ||
		!strings.Contains(err.Error(), "use ref") {
		t.Errorf("dew engine should reject write simulation, got %v", err)
	}
	// Instrumented passes fold kinds away.
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-n", "1000", "-counters", "-write", "wt"); err == nil || !IsUsage(err) {
		t.Error("-write with -counters should be a usage error")
	}
}

// lineWith returns the first output line containing the marker.
func lineWith(out, marker string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, marker) {
			return strings.TrimSpace(l)
		}
	}
	return ""
}
