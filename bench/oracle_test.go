package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The testdata outputs are captured tool runs over a 2000-access
// tracegen trace (seed 1); see testdata/README.

func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A materialized and a streamed dewsim run differ only in their footer.
func TestNormalizeDewsim(t *testing.T) {
	a, b := readTestdata(t, "dewsim-materialized.out"), readTestdata(t, "dewsim-streamed.out")
	if bytes.Equal(a, b) {
		t.Fatal("captured runs are identical; the test needs differing footers")
	}
	na, nb := normalize("dewsim", a), normalize("dewsim", b)
	if !bytes.Equal(na, nb) {
		t.Errorf("normalized outputs differ:\n%s\n---\n%s", na, nb)
	}
	if bytes.Contains(na, []byte("simulated ")) {
		t.Errorf("footer survived normalization:\n%s", na)
	}
	rows, err := parseRows(a)
	if err != nil {
		t.Fatal(err)
	}
	// -assoc 2 -maxlog 3: set counts 1..8 at associativity 1 and 2.
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.accesses != 2000 || r.misses == 0 || r.misses > r.accesses || r.block != 16 {
			t.Errorf("implausible row %v: %d accesses, %d misses", r, r.accesses, r.misses)
		}
	}
}

// The sharded refsim run adds a replay line to the per-access run's
// report; everything else must match.
func TestNormalizeRefsim(t *testing.T) {
	sharded, mono := readTestdata(t, "refsim-sharded.out"), readTestdata(t, "refsim-mono.out")
	if !bytes.Contains(sharded, []byte("replay:")) {
		t.Fatal("captured sharded run has no replay line")
	}
	if ns, nm := normalize("refsim", sharded), normalize("refsim", mono); !bytes.Equal(ns, nm) {
		t.Errorf("normalized outputs differ:\n%s\n---\n%s", ns, nm)
	}
	acc, miss, err := parseRefsim(mono)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 2000 || miss == 0 || miss > acc {
		t.Errorf("parsed %d accesses, %d misses", acc, miss)
	}
}

// Two experiments runs of the same seed differ in their recorded times;
// normalization keeps every count and drops every time.
func TestNormalizeExperiments(t *testing.T) {
	a, b := readTestdata(t, "experiments-1.out"), readTestdata(t, "experiments-2.out")
	na, nb := normalize("experiments", a), normalize("experiments", b)
	if !bytes.Equal(na, nb) {
		t.Errorf("normalized outputs differ:\n%s\n---\n%s", na, nb)
	}
	s := string(na)
	for _, gone := range []string{"Figure 5", "DEW time", "ref time", "speedup"} {
		if strings.Contains(s, gone) {
			t.Errorf("%q survived normalization", gone)
		}
	}
	for _, kept := range []string{"application,block,assoc pair,DEW cmps (M),ref cmps (M),reduction %", "MRA (P2)", "Figure 6"} {
		if !strings.Contains(s, kept) {
			t.Errorf("%q lost in normalization:\n%s", kept, s)
		}
	}
	if strings.Count(string(a), "\n") != strings.Count(s, "\n")+strings.Count(figure5(string(a)), "\n") {
		t.Error("normalization dropped more lines than the Figure 5 block")
	}
}

func figure5(out string) string {
	i := strings.Index(out, "Figure 5:")
	end := strings.Index(out[i:], "\n\n")
	return out[i : i+end+2]
}

func TestNormalizeExploreIsIdentity(t *testing.T) {
	out := []byte("sets,assoc,block,sizeBytes,accesses,misses,missRate,energyPJ\n1,1,1,1,10,4,0.400000,12.5\n")
	if !bytes.Equal(normalize("explore", out), out) {
		t.Error("explore output changed")
	}
	rows, err := parseRows(out)
	if err != nil || len(rows) != 1 || rows[0] != (configRow{1, 1, 1, 10, 4}) {
		t.Errorf("parseRows = %v, %v", rows, err)
	}
}
