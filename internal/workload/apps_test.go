package workload

import (
	"testing"

	"dew/internal/trace"
)

func TestAppsRegistry(t *testing.T) {
	apps := Apps()
	if len(apps) != 6 {
		t.Fatalf("Apps() returned %d, want 6", len(apps))
	}
	wantOrder := []string{"CJPEG", "DJPEG", "G721 Enc", "G721 Dec", "MPEG2 Enc", "MPEG2 Dec"}
	for i, a := range apps {
		if a.Name != wantOrder[i] {
			t.Errorf("app %d = %q, want %q (Table 2 order)", i, a.Name, wantOrder[i])
		}
		got, err := Lookup(a.Name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", a.Name, err)
		}
		if got.Name != a.Name {
			t.Errorf("Lookup(%q) returned %q", a.Name, got.Name)
		}
	}
	if _, err := Lookup("GHOSTSCRIPT"); err == nil {
		t.Error("Lookup of unknown app should fail")
	}
}

func TestPaperRequestCounts(t *testing.T) {
	// Table 2 of the paper, verbatim.
	want := map[string]uint64{
		"CJPEG":     25_680_911,
		"DJPEG":     7_617_458,
		"G721 Enc":  154_999_563,
		"G721 Dec":  154_856_346,
		"MPEG2 Enc": 3_738_851_450,
		"MPEG2 Dec": 1_411_434_040,
	}
	for name, n := range want {
		a, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.PaperRequests != n {
			t.Errorf("%s PaperRequests = %d, want %d", name, a.PaperRequests, n)
		}
	}
}

func TestDefaultRequestsScaling(t *testing.T) {
	for _, a := range Apps() {
		n := a.DefaultRequests()
		if n < 100_000 || n > 4_000_000 {
			t.Errorf("%s DefaultRequests = %d outside [100k, 4M]", a.Name, n)
		}
	}
	// Relative ordering preserved where not clamped: G721 > CJPEG > DJPEG.
	if !(G721Enc.DefaultRequests() > CJPEG.DefaultRequests()) {
		t.Error("G721 Enc should have a longer default trace than CJPEG")
	}
	if !(CJPEG.DefaultRequests() > DJPEG.DefaultRequests()) {
		t.Error("CJPEG should have a longer default trace than DJPEG")
	}
}

func TestAppDeterminism(t *testing.T) {
	for _, a := range Apps() {
		t1 := Take(a.Generator(99), 5000)
		t2 := Take(a.Generator(99), 5000)
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("%s: same seed diverged at access %d", a.Name, i)
			}
		}
		t3 := Take(a.Generator(100), 5000)
		diff := 0
		for i := range t1 {
			if t1[i] != t3[i] {
				diff++
			}
		}
		if diff == 0 {
			t.Errorf("%s: different seeds produced identical traces", a.Name)
		}
	}
}

func TestAppTraceShape(t *testing.T) {
	for _, a := range Apps() {
		tr := Take(a.Generator(1), 30000)
		p, err := trace.ProfileReader(tr.NewSliceReader(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if p.Total != 30000 {
			t.Fatalf("%s: profile total %d", a.Name, p.Total)
		}
		// Every model interleaves instruction and data streams.
		if p.IFetches() == 0 {
			t.Errorf("%s: no instruction fetches", a.Name)
		}
		if p.Reads()+p.Writes() == 0 {
			t.Errorf("%s: no data accesses", a.Name)
		}
		frac := float64(p.IFetches()) / float64(p.Total)
		if frac < 0.4 || frac > 0.9 {
			t.Errorf("%s: ifetch fraction %.2f outside [0.4, 0.9]", a.Name, frac)
		}
		if p.UniqueBlocks < 100 {
			t.Errorf("%s: working set only %d blocks", a.Name, p.UniqueBlocks)
		}
	}
}

// The MPEG2 models must have a substantially larger working set than the
// G721 models — that footprint difference drives the paper's per-app
// results (G721's tiny state vs MPEG2's frame buffers).
func TestWorkingSetOrdering(t *testing.T) {
	const n = 200000
	footprint := func(a App) uint64 {
		p, err := trace.ProfileReader(Take(a.Generator(7), n).NewSliceReader(), 32)
		if err != nil {
			t.Fatal(err)
		}
		return p.UniqueBlocks
	}
	g721 := footprint(G721Enc)
	mpeg := footprint(MPEG2Enc)
	if mpeg < 4*g721 {
		t.Errorf("MPEG2 Enc working set (%d blocks) should dwarf G721 Enc (%d blocks)", mpeg, g721)
	}
}

// Instruction streams must show streak locality: consecutive same-block
// pairs should be common at a 32-byte block size. DEW's MRA property
// feeds on exactly this.
func TestTraceStreakiness(t *testing.T) {
	for _, a := range Apps() {
		tr := Take(a.Generator(3), 50000)
		same := 0
		for i := 1; i < len(tr); i++ {
			if tr[i].Addr>>5 == tr[i-1].Addr>>5 {
				same++
			}
		}
		frac := float64(same) / float64(len(tr)-1)
		if frac < 0.2 {
			t.Errorf("%s: same-32B-block streak fraction %.2f, want >= 0.2", a.Name, frac)
		}
	}
}

func TestAppGeneratorViaStream(t *testing.T) {
	r := Stream(CJPEG.Generator(5), 100)
	tr, err := trace.ReadAll(r)
	if err != nil || len(tr) != 100 {
		t.Fatalf("Stream: %d accesses, %v", len(tr), err)
	}
}
