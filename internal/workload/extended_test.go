package workload

import (
	"testing"

	"dew/internal/trace"
)

func TestExtendedAppsRegistry(t *testing.T) {
	ext := ExtendedApps()
	if len(ext) != 4 {
		t.Fatalf("ExtendedApps = %d, want 4", len(ext))
	}
	// The paper suite stays exactly six; extended models are reachable
	// only via Lookup/ExtendedApps.
	if len(Apps()) != 6 {
		t.Fatalf("Apps() = %d, want the paper's 6", len(Apps()))
	}
	for _, a := range ext {
		got, err := Lookup(a.Name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", a.Name, err)
		}
		if got.Name != a.Name {
			t.Errorf("Lookup(%q) = %q", a.Name, got.Name)
		}
		if a.PaperRequests != 0 {
			t.Errorf("%s: PaperRequests = %d, want 0 (not in Table 2)", a.Name, a.PaperRequests)
		}
		if a.DefaultRequests() < 100_000 {
			t.Errorf("%s: DefaultRequests = %d", a.Name, a.DefaultRequests())
		}
	}
}

func TestExtendedAppsDeterministicAndShaped(t *testing.T) {
	for _, a := range ExtendedApps() {
		t1 := Take(a.Generator(7), 20000)
		t2 := Take(a.Generator(7), 20000)
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("%s: same seed diverged at %d", a.Name, i)
			}
		}
		p, err := trace.ProfileReader(t1.NewSliceReader(), 32)
		if err != nil {
			t.Fatal(err)
		}
		if p.IFetches() == 0 || p.Reads() == 0 || p.Writes() == 0 {
			t.Errorf("%s: missing a request kind: %v", a.Name, p)
		}
		if p.UniqueBlocks < 50 {
			t.Errorf("%s: working set only %d blocks", a.Name, p.UniqueBlocks)
		}
	}
}

// ADPCM's tiny kernel must hit far harder than EPIC's image pyramid —
// the workload-shape difference the extended suite exists to provide.
func TestExtendedAppsSpreadWorkingSets(t *testing.T) {
	footprint := func(a App) uint64 {
		p, err := trace.ProfileReader(Take(a.Generator(3), 100_000).NewSliceReader(), 32)
		if err != nil {
			t.Fatal(err)
		}
		return p.UniqueBlocks
	}
	if adpcm, epic := footprint(ADPCMEnc), footprint(EPIC); epic < 2*adpcm {
		t.Errorf("EPIC working set (%d blocks) should dwarf ADPCM Enc (%d)", epic, adpcm)
	}
}
