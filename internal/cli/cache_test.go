package cli

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestDewSimCacheWarm: a cold dewsim run decodes and publishes, the
// warm run is fully result-cached — identical result tables, provenance
// in the mode line.
func TestDewSimCacheWarm(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-cache", dir, "-app", "CJPEG", "-n", "8000", "-assoc", "2", "-block", "16", "-maxlog", "4"}
	cold, _, err := run(t, DewSim, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold, "decode overlapped") {
		t.Errorf("cold mode line lacks decode provenance:\n%s", cold)
	}
	warm, _, err := run(t, DewSim, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm, "fully result-cached (0 simulations, 0 trace decodes)") {
		t.Errorf("warm mode line lacks result-cache provenance:\n%s", warm)
	}
	tableOf := func(s string) string { return s[:strings.Index(s, "\nsimulated ")] }
	if tableOf(cold) != tableOf(warm) {
		t.Errorf("warm table differs from cold:\n%s\nvs\n%s", tableOf(warm), tableOf(cold))
	}
	// The sharded warm run answers from the same result entries — the
	// shard fan-out is scheduling, not identity, for a dewsim rung.
	sharded, _, err := run(t, DewSim, append(args, "-shards", "2")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sharded, "0 simulations, 0 trace decodes") {
		t.Errorf("sharded warm mode line lacks result-cache provenance:\n%s", sharded)
	}
	if tableOf(cold) != tableOf(sharded) {
		t.Error("sharded warm table differs from cold")
	}
}

// TestDewSimCacheWriteSimSeparation: -write keys its result on the
// kind-preserving stream, which must not collide with the kind-free
// entry.
func TestDewSimCacheWriteSimSeparation(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-cache", dir, "-app", "CJPEG", "-n", "5000", "-block", "16", "-maxlog", "3"}
	if _, _, err := run(t, DewSim, base...); err != nil {
		t.Fatal(err)
	}
	wargs := append(append([]string{}, base...),
		"-engine", "ref", "-minlog", "3", "-write", "wt", "-alloc", "nwa")
	out, _, err := run(t, DewSim, wargs...)
	if err != nil {
		t.Fatal(err)
	}
	// First write-policy run after a kind-free run must still decode.
	if !strings.Contains(out, "decode overlapped") {
		t.Errorf("write-policy run hit the kind-free entry:\n%s", out)
	}
	out, _, err = run(t, DewSim, wargs...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 simulations, 0 trace decodes") {
		t.Errorf("second write-policy run missed:\n%s", out)
	}
}

// TestExploreCacheWarm: explore's -csv output must be byte-identical
// between cold and warm runs (the CSV has no timing), and the default
// output must report result-cache provenance.
func TestExploreCacheWarm(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-cache", dir, "-app", "CJPEG", "-n", "6000",
		"-maxlog-sets", "4", "-maxlog-block", "4", "-maxlog-assoc", "1", "-quiet"}
	coldCSV, _, err := run(t, Explore, append(args, "-csv")...)
	if err != nil {
		t.Fatal(err)
	}
	warmCSV, _, err := run(t, Explore, append(args, "-csv")...)
	if err != nil {
		t.Fatal(err)
	}
	if coldCSV != warmCSV {
		t.Error("warm explore CSV differs from cold")
	}
	out, _, err := run(t, Explore, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 simulated") || !strings.Contains(out, "result-cached") ||
		!strings.Contains(out, "(1 live re-verified)") {
		t.Errorf("warm explore output lacks result-tier provenance:\n%s", out)
	}
}

// TestExploreCacheTraceFile: file-backed warm runs key on the file's
// content hash, so a renamed copy still hits.
func TestExploreCacheTraceFile(t *testing.T) {
	dir := t.TempDir()
	din := filepath.Join(dir, "t.din")
	var sb strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&sb, "%d %x\n", i%3, (i*56)%4096)
	}
	if err := os.WriteFile(din, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	args := func(path string) []string {
		return []string{"-cache", cacheDir, "-trace", path,
			"-maxlog-sets", "3", "-maxlog-block", "3", "-maxlog-assoc", "1", "-quiet", "-csv"}
	}
	cold, _, err := run(t, Explore, args(din)...)
	if err != nil {
		t.Fatal(err)
	}
	copyPath := filepath.Join(dir, "renamed.din")
	data, err := os.ReadFile(din)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	warm, warmErr, err := run(t, Explore, args(copyPath)...)
	if err != nil {
		t.Fatal(err)
	}
	_ = warmErr
	if cold != warm {
		t.Error("renamed identical trace file did not produce identical results")
	}
	out, _, err := run(t, Explore, args(copyPath)[:len(args(copyPath))-1]...) // drop -csv
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 simulated") {
		t.Errorf("renamed trace file missed the cache:\n%s", out)
	}
}

// TestRefSimShardedCacheWarm: the sharded reference replay is served
// from the result store on the second run.
func TestRefSimShardedCacheWarm(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-cache", dir, "-app", "CJPEG", "-n", "6000",
		"-sets", "16", "-assoc", "2", "-block", "16", "-shards", "2"}
	cold, _, err := run(t, RefSim, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold, "streamed, peak ") {
		t.Errorf("cold refsim lacks decode provenance:\n%s", cold)
	}
	warm, _, err := run(t, RefSim, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm, "result-cached (0 simulations, 0 trace decodes)") {
		t.Errorf("warm refsim lacks result-cache provenance:\n%s", warm)
	}
	statsOf := func(s string) string { return s[strings.Index(s, "accesses:"):] }
	if statsOf(cold) != statsOf(warm) {
		t.Error("warm refsim statistics differ from cold")
	}
}

// TestExperimentsSeedsCacheWarm: a multi-seed sweep runs as one batch,
// so its warm rerun is byte-identical and live re-verifies one sampled
// cell, and its provenance counts every seed's cell — a third seed
// simulates only its own cells.
func TestExperimentsSeedsCacheWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep skipped in -short mode")
	}
	dir := t.TempDir()
	args := func(seeds string) []string {
		return []string{"-table", "3", "-requests", "5000", "-maxlog", "4", "-seeds", seeds, "-cache", dir, "-csv"}
	}
	cold, coldErr, err := run(t, Experiments, args("2")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(coldErr, "sweep of 108 cells") || !strings.Contains(coldErr, "cells: 108 simulated, 0 result-cached (0 live re-verified)") {
		t.Errorf("cold provenance:\n%s", coldErr)
	}
	warm, warmErr, err := run(t, Experiments, args("2")...)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Errorf("warm stdout differs from cold:\n%s\nvs\n%s", warm, cold)
	}
	if !strings.Contains(warmErr, "cells: 0 simulated, 108 result-cached (1 live re-verified)") {
		t.Errorf("warm provenance:\n%s", warmErr)
	}
	_, moreErr, err := run(t, Experiments, args("3")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(moreErr, "sweep of 162 cells") || !strings.Contains(moreErr, "cells: 54 simulated, 108 result-cached (1 live re-verified)") {
		t.Errorf("-seeds 3 provenance:\n%s", moreErr)
	}
}

// TestCrossToolResultSharing: dewsim, refsim and explore store one
// pass record (engine.Plan), so a pass one tool published answers warm
// for another and no tool overwrites another's entry. Each row runs its
// steps against one cache directory; the last step must be served from
// the result tier and print exactly what the same run prints without a
// cache (its footer line aside).
func TestCrossToolResultSharing(t *testing.T) {
	type step struct {
		tool func(context.Context, Env, []string) error
		args []string
		want string // regexp the step's stdout must match
	}
	src := []string{"-app", "CJPEG", "-n", "8000"}
	dewArgs := append([]string{"-assoc", "4", "-block", "8", "-maxlog", "4"}, src...)
	writeArgs := append([]string{"-engine", "ref", "-minlog", "4", "-maxlog", "4", "-assoc", "2", "-block", "16",
		"-write", "wt", "-alloc", "nwa"}, src...)
	rows := []struct {
		name  string
		steps []step
	}{
		{"dewsim-explore-dewsim", []step{
			{DewSim, dewArgs, "decode overlapped"},
			// explore's space holds dewsim's pass (B=8, A=4, sets 1..16).
			{Explore, append([]string{"-maxlog-sets", "4", "-maxlog-block", "3", "-maxlog-assoc", "2", "-quiet"}, src...),
				`[1-9][0-9]* result-cached`},
			{DewSim, dewArgs, `fully result-cached \(0 simulations, 0 trace decodes\)`},
		}},
		{"refsim-dewsim-write", []step{
			{RefSim, append([]string{"-sets", "16", "-assoc", "2", "-block", "16", "-write", "wt", "-alloc", "nwa",
				"-shards", "2"}, src...), "set-substreams"},
			{DewSim, writeArgs, `fully result-cached \(0 simulations, 0 trace decodes\)`},
		}},
	}
	dropFooter := regexp.MustCompile(`(?m)^simulated .*\n`)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			var out string
			for i, st := range row.steps {
				var err error
				if out, _, err = run(t, st.tool, append([]string{"-cache", dir}, st.args...)...); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if !regexp.MustCompile(st.want).MatchString(out) {
					t.Fatalf("step %d output lacks %q:\n%s", i, st.want, out)
				}
			}
			last := row.steps[len(row.steps)-1]
			plain, _, err := run(t, last.tool, last.args...)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := dropFooter.ReplaceAllString(out, ""), dropFooter.ReplaceAllString(plain, ""); got != want {
				t.Errorf("result-cached output differs from a cache-less run:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestDewCacheSubcommand drives stats → gc → clear over a populated
// cache directory.
func TestDewCacheSubcommand(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := run(t, DewSim, "-cache", dir, "-app", "CJPEG", "-n", "4000", "-maxlog", "3"); err != nil {
		t.Fatal(err)
	}
	// Plant junk for gc: a temp file abandoned long enough to reap, and
	// a stream entry an earlier build published.
	orphan := filepath.Join(dir, "tmp-orphan")
	if err := os.WriteFile(orphan, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(orphan, stale, stale); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, strings.Repeat("ab", 32)+".dbs")
	if err := os.WriteFile(legacy, []byte("old stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := run(t, Dew, "cache", "stats", "-cache", dir)
	if err != nil {
		t.Fatal(err)
	}
	// One dewsim run leaves one result entry; the old stream is dead.
	if !strings.Contains(out, "result entries") || !strings.Contains(out, "1 entries") ||
		strings.Contains(out, "stream entries") {
		t.Errorf("stats output unexpected:\n%s", out)
	}
	if !regexp.MustCompile(`dead \(gc reclaims\) *\| *1 *\| *10 `).MatchString(out) {
		t.Errorf("stats output does not count the old stream entry as dead:\n%s", out)
	}
	// stats does no lookups, so it prints no per-process counters.
	if strings.Contains(out, "this process") || strings.Contains(out, "hits") {
		t.Errorf("stats output reports per-process lookup counters:\n%s", out)
	}
	out, _, err = run(t, Dew, "cache", "gc", "-cache", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "gc removed 2 files") || !strings.Contains(out, "reclaimed") {
		t.Errorf("gc output unexpected:\n%s", out)
	}
	out, _, err = run(t, Dew, "cache", "clear", "-cache", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cleared 1 files") {
		t.Errorf("clear output unexpected:\n%s", out)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("%d files left after clear", len(ents))
	}
}

// TestDewCacheUsageErrors pins the subcommand's usage surface.
func TestDewCacheUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"cache"},
		{"cache", "bogus", "-cache", t.TempDir()},
		{"cache", "stats"}, // no -cache and no DEW_CACHE
	} {
		t.Setenv("DEW_CACHE", "")
		if _, _, err := run(t, Dew, args...); err == nil || !IsUsage(err) {
			t.Errorf("Dew(%q) = %v, want usage error", args, err)
		}
	}
}

// TestCacheEnvFallback: DEW_CACHE stands in for -cache.
func TestCacheEnvFallback(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("DEW_CACHE", dir)
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-n", "3000", "-maxlog", "2"); err != nil {
		t.Fatal(err)
	}
	out, _, err := run(t, DewSim, "-app", "CJPEG", "-n", "3000", "-maxlog", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 simulations, 0 trace decodes") {
		t.Errorf("DEW_CACHE fallback did not hit:\n%s", out)
	}
	out, _, err = run(t, Dew, "cache", "stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, dir) {
		t.Errorf("stats did not resolve DEW_CACHE:\n%s", out)
	}
}

// TestExploreWarmFoldsOnlyLiveRungs: a warm explore whose only live
// pass is the sampled re-check folds the block-size ladder only up to
// that pass's rung — result-cached passes take their rung's compression
// from their pass records — so it reports fewer folds than a cold run,
// and its CSV is byte-identical to the cold run's. (The trace and space
// are picked so that the sampled pass is not at the coarsest block
// size, where the warm run would have to fold every rung too.)
func TestExploreWarmFoldsOnlyLiveRungs(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-app", "CJPEG", "-n", "6000",
		"-maxlog-sets", "4", "-maxlog-block", "4", "-maxlog-assoc", "1", "-quiet"}
	folds := regexp.MustCompile(`1 trace decode \+ (\d+) folds`)
	countFolds := func(out string) int {
		t.Helper()
		m := folds.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no fold count in output:\n%s", out)
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	out, _, err := run(t, Explore, args...)
	if err != nil {
		t.Fatal(err)
	}
	cold := countFolds(out)
	cached := append([]string{"-cache", dir}, args...)
	coldCSV, _, err := run(t, Explore, append(cached, "-csv")...)
	if err != nil {
		t.Fatal(err)
	}
	warmCSV, _, err := run(t, Explore, append(cached, "-csv")...)
	if err != nil {
		t.Fatal(err)
	}
	if coldCSV != warmCSV {
		t.Error("warm explore CSV differs from cold")
	}
	out, _, err = run(t, Explore, cached...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "passes: 0 simulated, 5 result-cached (1 live re-verified)") {
		t.Fatalf("warm explore is not one sampled re-check over a warm cache:\n%s", out)
	}
	if warm := countFolds(out); warm >= cold {
		t.Errorf("warm run folded %d rungs, cold %d: result-cached passes still fold their rungs", warm, cold)
	}
}
