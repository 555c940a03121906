package cli

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestParseMemBytes(t *testing.T) {
	good := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"123", 123},
		{"100B", 100},
		{"1KiB", 1 << 10},
		{"8MiB", 8 << 20},
		{"8mib", 8 << 20},
		{"2G", 2 << 30},
		{" 4 MiB ", 4 << 20},
	}
	for _, c := range good {
		got, err := parseMemBytes(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseMemBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{"", "-1", "8XB", "MiB", "1.5MiB", "9999999999GiB"} {
		if _, err := parseMemBytes(in); err == nil || !IsUsage(err) {
			t.Errorf("parseMemBytes(%q) = %v; want usage error", in, err)
		}
	}
}

// TestDewSimStreamed: the span-pipeline replay — at the default budget
// and at a small explicit one, single block size and fold ladder — must
// emit, rung for rung, the table of the instrumented per-access pass
// (-block B -counters), and echo streamed provenance in the mode line.
func TestDewSimStreamed(t *testing.T) {
	tableOf := func(s string) string { return s[:strings.Index(s, "\nsimulated ")] }
	base := []string{"-app", "DJPEG", "-n", "12000", "-assoc", "4", "-maxlog", "5", "-csv"}
	for _, blocks := range [][]string{{"16"}, {"8", "16", "32"}} {
		var want string
		for _, b := range blocks {
			out, _, err := run(t, DewSim, append(base, "-block", b, "-counters")...)
			if err != nil {
				t.Fatal(err)
			}
			rows := tableOf(out)
			if want != "" {
				rows = rows[strings.Index(rows, "\n")+1:] // drop the repeated CSV header
			}
			want += rows
		}
		for _, mem := range []string{"0", "4KiB"} {
			args := append(base, "-blocks", strings.Join(blocks, ","), "-stream-mem", mem)
			got, _, err := run(t, DewSim, args...)
			if err != nil {
				t.Fatal(err)
			}
			if tableOf(got) != want {
				t.Errorf("%v -stream-mem %s: table differs from the per-access pass:\n%s\nvs\n%s", blocks, mem, tableOf(got), want)
			}
			if !strings.Contains(got, "streamed, peak ") || !strings.Contains(got, "decode overlapped") {
				t.Errorf("%v -stream-mem %s: streamed provenance missing from mode line: %q", blocks, mem, got)
			}
		}
	}
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-stream-mem", "1MiB", "-counters"); err == nil || !IsUsage(err) {
		t.Error("-stream-mem with -counters should be a usage error")
	}
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-stream-mem", "zap"); err == nil || !IsUsage(err) {
		t.Error("bad -stream-mem should be a usage error")
	}
}

// TestDewSimStreamedWritePolicy: the kind-preserving write-policy
// replay through the span pipeline must report the misses and memory
// traffic of per-access refsim on the same configuration.
func TestDewSimStreamedWritePolicy(t *testing.T) {
	src := []string{"-app", "DJPEG", "-n", "10000", "-assoc", "4", "-block", "16"}
	for _, pol := range [][2]string{{"wt", "nwa"}, {"wb", "wa"}} {
		ref, _, err := run(t, RefSim, append(src, "-sets", "64", "-write", pol[0], "-alloc", pol[1])...)
		if err != nil {
			t.Fatal(err)
		}
		var misses, from, to, wbs uint64
		for _, line := range strings.Split(ref, "\n") {
			fmt.Sscanf(line, "misses: %d", &misses)
			fmt.Sscanf(line, "bytes from memory: %d", &from)
			fmt.Sscanf(line, "bytes to memory: %d (%d writebacks)", &to, &wbs)
		}
		if misses == 0 || from == 0 {
			t.Fatalf("%v: unparsed refsim output:\n%s", pol, ref)
		}
		wantRow := fmt.Sprintf("64,4,16,4KiB,10000,%d,%.4f", misses, float64(misses)/10000)
		wantTraffic := fmt.Sprintf("traffic B=16: %d bytes from memory, %d to memory (%d writebacks)", from, to, wbs)
		for _, mem := range []string{"0", "1"} {
			got, _, err := run(t, DewSim, append(src, "-engine", "ref", "-minlog", "6", "-maxlog", "6",
				"-write", pol[0], "-alloc", pol[1], "-stream-mem", mem, "-csv")...)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(got, wantRow+"\n") || !strings.Contains(got, wantTraffic+"\n") {
				t.Errorf("%v -stream-mem %s: want %q and %q, got:\n%s", pol, mem, wantRow, wantTraffic, got)
			}
		}
	}
}

// TestDewSimStreamedCache: a cold streamed run publishes its result;
// the second run is fully result-cached with zero stream work.
func TestDewSimStreamedCache(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-app", "CJPEG", "-n", "8000", "-block", "16", "-maxlog", "4",
		"-cache", dir, "-stream-mem", "4KiB", "-csv"}
	cold, _, err := run(t, DewSim, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold, "streamed, peak ") {
		t.Fatalf("cold run not streamed: %q", cold)
	}
	warm, _, err := run(t, DewSim, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm, "fully result-cached (0 simulations, 0 trace decodes)") {
		t.Fatalf("second run not fully result-cached: %q", warm)
	}
	tableOf := func(s string) string { return s[:strings.Index(s, "\nsimulated ")] }
	if tableOf(warm) != tableOf(cold) {
		t.Error("warm table differs from cold streamed run")
	}
	// A run at the default budget on a wider ladder reuses the cached
	// rung and decodes the trace again for the rung that missed: the
	// store holds results, never streams.
	other, _, err := run(t, DewSim, "-app", "CJPEG", "-n", "8000", "-blocks", "16,32",
		"-maxlog", "4", "-cache", dir, "-csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(other, "streamed, peak ") || !strings.Contains(other, "1/2 rungs result-cached") {
		t.Fatalf("partially warm ladder: %q", other)
	}
	if streams, _ := filepath.Glob(filepath.Join(dir, "*.dbs")); len(streams) != 0 {
		t.Fatalf("cache holds stream entries: %v", streams)
	}
}

// TestRefSimStreamed: the streamed single-configuration reference
// replay must print the exact statistics of the per-access replay for
// every policy — Random included, whose generator steps once per
// eviction and so survives run compression bit for bit.
func TestRefSimStreamed(t *testing.T) {
	statsOf := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "replay:") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	for _, policy := range []string{"FIFO", "LRU", "Random"} {
		args := []string{"-app", "DJPEG", "-n", "15000", "-sets", "64", "-assoc", "2",
			"-block", "16", "-policy", policy, "-write", "wb", "-alloc", "wa"}
		plain, _, err := run(t, RefSim, args...)
		if err != nil {
			t.Fatal(err)
		}
		str, _, err := run(t, RefSim, append(args, "-stream-mem", "2KiB")...)
		if err != nil {
			t.Fatal(err)
		}
		if statsOf(str) != statsOf(plain) {
			t.Errorf("%s: streamed stats differ:\n%s\nvs\n%s", policy, str, plain)
		}
		if !strings.Contains(str, "replay:            streamed, peak ") {
			t.Errorf("%s: streamed provenance missing: %q", policy, str)
		}
	}
}

// TestExploreStreamed: the exploration's CSV dump must be byte-identical
// across the materialized and streamed schedules, and the human-readable
// mode reports streamed provenance.
func TestExploreStreamed(t *testing.T) {
	args := []string{"-app", "DJPEG", "-n", "10000", "-maxlog-sets", "5",
		"-maxlog-block", "5", "-maxlog-assoc", "2", "-quiet"}
	mat, _, err := run(t, Explore, append(args, "-csv")...)
	if err != nil {
		t.Fatal(err)
	}
	str, _, err := run(t, Explore, append(args, "-csv", "-stream-mem", "8MiB")...)
	if err != nil {
		t.Fatal(err)
	}
	if str != mat {
		t.Error("streamed explore CSV differs from materialized")
	}
	human, _, err := run(t, Explore, append(args, "-stream-mem", "8MiB")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(human, "streamed: 1 overlapped decode") || !strings.Contains(human, "stream resident") {
		t.Errorf("streamed provenance missing: %q", human)
	}
}

// withoutLines drops the lines starting with any of the prefixes — the
// timing and provenance lines that legitimately differ between replay
// modes.
func withoutLines(s string, prefixes ...string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		drop := false
		for _, p := range prefixes {
			drop = drop || strings.HasPrefix(line, p)
		}
		if !drop {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestShardedStreamMem: sharded runs always replay the span pipeline,
// so -shards composes with -stream-mem in every tool, and the output is
// the monolithic run's — dewsim's fold ladder, refsim's write-through
// no-write-allocate replay and explore's CSV dump.
func TestShardedStreamMem(t *testing.T) {
	dew := []string{"-app", "DJPEG", "-n", "12000", "-assoc", "4", "-maxlog", "6", "-blocks", "8,16,32", "-csv"}
	ref := []string{"-app", "DJPEG", "-n", "12000", "-sets", "64", "-assoc", "2", "-block", "16", "-write", "wt", "-alloc", "nwa"}
	exp := []string{"-app", "DJPEG", "-n", "10000", "-maxlog-sets", "5", "-maxlog-block", "5", "-maxlog-assoc", "2", "-quiet", "-csv"}
	for _, tool := range []struct {
		name string
		fn   func(context.Context, Env, []string) error
		args []string
		skip []string
	}{
		{"dewsim", DewSim, dew, []string{"simulated "}},
		{"refsim", RefSim, ref, []string{"replay:"}},
		{"explore", Explore, exp, nil},
	} {
		mono, _, err := run(t, tool.fn, tool.args...)
		if err != nil {
			t.Fatal(err)
		}
		for _, extra := range [][]string{{"-shards", "4"}, {"-shards", "4", "-stream-mem", "1MiB"}, {"-shards", "4", "-stream-mem", "1"}} {
			got, _, err := run(t, tool.fn, append(append([]string{}, tool.args...), extra...)...)
			if err != nil {
				t.Fatalf("%s %v: %v", tool.name, extra, err)
			}
			if withoutLines(got, tool.skip...) != withoutLines(mono, tool.skip...) {
				t.Errorf("%s %v: output differs from the monolithic run:\n%s\nvs\n%s", tool.name, extra, got, mono)
			}
		}
	}
}

// TestShardedStreamCache: the merged streamed/sharded paths share the
// result store. A sharded run that misses it decodes the trace and
// matches the monolithic run; refsim probes and publishes the result
// store on every streamed or sharded run, -stream-mem alone included.
func TestShardedStreamCache(t *testing.T) {
	dir := t.TempDir()
	dew := []string{"-app", "CJPEG", "-n", "9000", "-block", "16", "-maxlog", "6", "-shards", "2", "-cache", dir, "-csv"}
	cold, _, err := run(t, DewSim, dew...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold, "sharded across 2 substreams, streamed, peak ") {
		t.Fatalf("cold sharded run did not stream: %q", cold)
	}
	// A different associativity misses the result store and decodes.
	other, _, err := run(t, DewSim, append(append([]string{}, dew...), "-assoc", "2")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(other, "sharded across 2 substreams, streamed, peak ") {
		t.Fatalf("sharded result-store miss did not decode: %q", other)
	}
	mono, _, err := run(t, DewSim, "-app", "CJPEG", "-n", "9000", "-block", "16", "-maxlog", "6", "-assoc", "2", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	if withoutLines(other, "simulated ") != withoutLines(mono, "simulated ") {
		t.Errorf("sharded run differs from the monolithic run:\n%s\nvs\n%s", other, mono)
	}

	ref := []string{"-app", "CJPEG", "-n", "9000", "-sets", "64", "-assoc", "2", "-block", "16", "-write", "wt", "-cache", dir}
	streamed, _, err := run(t, RefSim, append(append([]string{}, ref...), "-stream-mem", "64KiB")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(streamed, "replay:            streamed, peak ") {
		t.Fatalf("cold streamed refsim did not stream: %q", streamed)
	}
	warm, _, err := run(t, RefSim, append(append([]string{}, ref...), "-stream-mem", "64KiB")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm, "replay:            result-cached (0 simulations, 0 trace decodes)") {
		t.Fatalf("second streamed refsim not result-cached: %q", warm)
	}
	if withoutLines(warm, "replay:") != withoutLines(streamed, "replay:") {
		t.Error("result-cached refsim output differs from the cold run")
	}
	// Another write policy misses the result store; the sharded run
	// decodes the kind-preserving spans.
	sharded, _, err := run(t, RefSim, append(append([]string{}, ref...), "-alloc", "nwa", "-shards", "4")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sharded, "4 set-substreams in parallel (streamed, peak ") {
		t.Fatalf("sharded refsim result-store miss did not decode: %q", sharded)
	}
	plain, _, err := run(t, RefSim, "-app", "CJPEG", "-n", "9000", "-sets", "64", "-assoc", "2", "-block", "16", "-write", "wt", "-alloc", "nwa")
	if err != nil {
		t.Fatal(err)
	}
	if withoutLines(sharded, "replay:") != withoutLines(plain, "replay:") {
		t.Errorf("sharded refsim differs from the per-access replay:\n%s\nvs\n%s", sharded, plain)
	}
}

// TestResolveShards pins the one -shards resolver: negative counts are
// usage errors, 0 is a power of two in [1, GOMAXPROCS], and any other
// count stays as given.
func TestResolveShards(t *testing.T) {
	if _, err := resolveShards(-1); err == nil || ExitCode(err) != ExitUsage {
		t.Errorf("resolveShards(-1) = %v, want a usage error", err)
	}
	if got, err := resolveShards(0); err != nil || got < 1 || got > runtime.GOMAXPROCS(0) || got&(got-1) != 0 {
		t.Errorf("resolveShards(0) = %d, %v; want a power of two in [1, GOMAXPROCS]", got, err)
	}
	if got, err := resolveShards(3); err != nil || got != 3 {
		t.Errorf("resolveShards(3) = %d, %v; want 3", got, err)
	}
}

// TestStreamMemUsage: each tool's -stream-mem help says what 0 does
// there — refsim replays access by access, explore materializes.
func TestStreamMemUsage(t *testing.T) {
	for _, c := range []struct {
		name string
		tool func(context.Context, Env, []string) error
		want string
	}{
		{"refsim", RefSim, "0 replays the trace access by access from the reader, materializing nothing"},
		{"explore", Explore, "0 materializes streams in full"},
	} {
		_, stderr, err := run(t, c.tool, "-h")
		if !IsUsage(err) || !strings.Contains(strings.Join(strings.Fields(stderr), " "), c.want) {
			t.Errorf("%s -h: %v; usage lacks %q:\n%s", c.name, err, c.want, stderr)
		}
	}
}
