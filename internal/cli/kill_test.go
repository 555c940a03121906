package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dew/internal/store"
)

// killChildEnv marks a re-executed test binary as the dewsim child of
// TestDewSimKillRerun; its value is the child's argument list, one
// argument per line.
const killChildEnv = "DEW_KILL_TEST_CHILD_ARGS"

// TestDewSimKillRerun kills a cold `dewsim -blocks 4,16,64 -cache DIR`
// with SIGKILL at several points — mid result publish, right after the
// first result entry lands, and at fixed fractions of a measured cold
// run — and reruns it on the same DIR. Every live entry left behind
// must decode (a kill leaves only tmp- files, never a torn entry), the
// rerun's tables must be byte-identical to a run with no cache, nothing
// may be quarantined, and a second rerun must be fully result-cached. This is why an interrupted run needs no resume:
// rerunning it is exact and reuses whatever was published.
func TestDewSimKillRerun(t *testing.T) {
	if args, ok := os.LookupEnv(killChildEnv); ok {
		if err := DewSim(context.Background(), Env{Stdout: io.Discard, Stderr: os.Stderr}, strings.Split(args, "\n")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	t.Setenv("DEW_CACHE", "")
	tmp := t.TempDir()
	din := filepath.Join(tmp, "t.din")
	if _, _, err := run(t, TraceGen, "-app", "CJPEG", "-n", "200000", "-o", din); err != nil {
		t.Fatal(err)
	}
	base := []string{"-trace", din, "-blocks", "4,16,64"}
	want, _, err := run(t, DewSim, base...)
	if err != nil {
		t.Fatal(err)
	}
	want = stripSimulated(want)

	// child starts a cold run on dir; done delivers its Wait result.
	child := func(dir string) (cmd *exec.Cmd, stderr *bytes.Buffer, done chan error) {
		t.Helper()
		cmd = exec.Command(os.Args[0], "-test.run=^TestDewSimKillRerun$")
		cmd.Env = append(os.Environ(), killChildEnv+"="+strings.Join(append([]string{"-cache", dir}, base...), "\n"))
		stderr = new(bytes.Buffer)
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done = make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		return cmd, stderr, done
	}

	// Uninterrupted child runs size the fixed-delay kill points: the
	// faster of two, since the first start-up also pages the binary in.
	var full time.Duration
	for i := 0; i < 2; i++ {
		startAt := time.Now()
		_, stderr, done := child(filepath.Join(tmp, fmt.Sprintf("full%d", i)))
		if err := <-done; err != nil {
			t.Fatalf("uninterrupted child: %v\n%s", err, stderr)
		}
		if d := time.Since(startAt); i == 0 || d < full {
			full = d
		}
	}

	type killPoint struct {
		name string
		// fire reports, given the cache directory's file names and the
		// time since the child started, whether to kill now.
		fire func(names []string, since time.Duration) bool
	}
	has := func(names []string, match func(string) bool) bool {
		for _, n := range names {
			if match(n) {
				return true
			}
		}
		return false
	}
	isTmp := func(n string) bool { return strings.HasPrefix(n, "tmp-") }
	isResult := func(n string) bool { return strings.HasSuffix(n, ".drs") }
	points := []killPoint{
		{"result put", func(n []string, _ time.Duration) bool { return has(n, isTmp) }},
		{"result entry", func(n []string, _ time.Duration) bool { return has(n, isResult) }},
	}
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 0.9} {
		at := time.Duration(frac * float64(full))
		points = append(points, killPoint{fmt.Sprintf("%.0f%% of a cold run", 100*frac),
			func(_ []string, since time.Duration) bool { return since >= at }})
	}

	killed := 0
	for i, kp := range points {
		dir := filepath.Join(tmp, fmt.Sprintf("cache%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		cmd, stderr, done := child(dir)
		started := time.Now()
		var err error
		var atKill []string
	poll:
		for {
			select {
			case err = <-done:
				break poll
			default:
			}
			names := dirNames(t, dir)
			if kp.fire(names, time.Since(started)) {
				// Process.Kill is SIGKILL on Unix: no deferred cleanup,
				// no flush, no signal handler runs in the child.
				if err := cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
					t.Fatal(err)
				}
				err, atKill = <-done, names
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		var exitErr *exec.ExitError
		switch {
		case err == nil:
			t.Logf("%s: child finished before the kill point", kp.name)
		case errors.As(err, &exitErr) && exitErr.ExitCode() == -1: // terminated by the signal
			t.Logf("%s: killed with %v in the cache directory", kp.name, atKill)
			killed++
		default:
			t.Fatalf("%s: child failed: %v\n%s", kp.name, err, stderr)
		}

		checkEntries(t, kp.name, dir)
		for rerun := 1; rerun <= 2; rerun++ {
			got, _, err := run(t, DewSim, append([]string{"-cache", dir}, base...)...)
			if err != nil {
				t.Fatalf("%s: rerun %d: %v", kp.name, rerun, err)
			}
			if rerun == 2 && !strings.Contains(got, "fully result-cached") {
				t.Errorf("%s: second rerun is not fully result-cached:\n%s", kp.name, got)
			}
			if got = stripSimulated(got); got != want {
				t.Fatalf("%s: rerun %d tables differ from a cache-less run:\n%s\nwant:\n%s", kp.name, rerun, got, want)
			}
		}
		checkEntries(t, kp.name, dir)
	}
	if killed == 0 {
		t.Error("no kill point caught the child mid-run")
	}
}

// stripSimulated drops dewsim's timing footer line.
func stripSimulated(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "simulated ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(des))
	for i, de := range des {
		names[i] = de.Name()
	}
	return names
}

// checkEntries decodes every live result entry in dir: each must
// decode whole, no stream entry may appear, and nothing may have been
// quarantined.
func checkEntries(t *testing.T, name, dir string) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range dirNames(t, dir) {
		switch filepath.Ext(n) {
		case ".dbs":
			t.Errorf("%s: stream entry %s in a result-only cache", name, n)
		case ".drs":
			data, err := os.ReadFile(filepath.Join(dir, n))
			if err != nil {
				t.Fatal(err)
			}
			var rb store.ResultBlob
			if err := rb.UnmarshalBinary(data); err != nil {
				t.Errorf("%s: result entry %s: %v", name, n, err)
			}
		}
	}
	ds, err := st.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Quarantined != 0 {
		t.Errorf("%s: %d quarantined files on disk", name, ds.Quarantined)
	}
}
