package trace

import (
	"testing"
)

func TestFilterKinds(t *testing.T) {
	tr := Trace{
		{Addr: 1, Kind: IFetch},
		{Addr: 2, Kind: DataRead},
		{Addr: 3, Kind: DataWrite},
		{Addr: 4, Kind: IFetch},
	}
	instr, err := ReadAll(OnlyInstructions(tr.NewSliceReader()))
	if err != nil {
		t.Fatal(err)
	}
	if len(instr) != 2 || instr[0].Addr != 1 || instr[1].Addr != 4 {
		t.Errorf("instruction stream = %v", instr)
	}
	data, err := ReadAll(OnlyData(tr.NewSliceReader()))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2 || data[0].Addr != 2 || data[1].Addr != 3 {
		t.Errorf("data stream = %v", data)
	}
}

func TestFilterPropagatesError(t *testing.T) {
	boom := FuncReader(func() (Access, error) { return Access{}, errTestSentinel })
	if _, err := Filter(boom, func(Access) bool { return true }).Next(); err != errTestSentinel {
		t.Fatalf("err = %v", err)
	}
}

var errTestSentinel = errorString("sentinel")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestDedupCollapsesRuns(t *testing.T) {
	tr := Trace{
		{Addr: 0}, {Addr: 3}, // same 4B block
		{Addr: 4},            // new block
		{Addr: 5}, {Addr: 7}, // same block again
		{Addr: 0}, // back to block 0: kept (not consecutive)
		{Addr: 1}, // same block: dropped
	}
	d, err := NewDedup(tr.NewSliceReader(), 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(d)
	if err != nil {
		t.Fatal(err)
	}
	wantAddrs := []uint64{0, 4, 0}
	if len(got) != len(wantAddrs) {
		t.Fatalf("deduped to %d accesses, want %d (%v)", len(got), len(wantAddrs), got)
	}
	for i, w := range wantAddrs {
		if got[i].Addr != w {
			t.Errorf("access %d = %d, want %d", i, got[i].Addr, w)
		}
	}
	if d.Dropped != 4 {
		t.Errorf("Dropped = %d, want 4", d.Dropped)
	}
}

func TestDedupBlockSizeOne(t *testing.T) {
	tr := Trace{{Addr: 9}, {Addr: 9}, {Addr: 9}, {Addr: 8}}
	d, err := NewDedup(tr.NewSliceReader(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ReadAll(d)
	if len(got) != 2 || d.Dropped != 2 {
		t.Errorf("got %d kept, %d dropped", len(got), d.Dropped)
	}
}

func TestDedupRejectsBadBlock(t *testing.T) {
	if _, err := NewDedup(Trace{}.NewSliceReader(), 3); err == nil {
		t.Error("want error for non-power-of-two block")
	}
	if _, err := NewDedup(Trace{}.NewSliceReader(), 0); err == nil {
		t.Error("want error for zero block")
	}
}

// Dedup preserves exact miss counts: dropped accesses are guaranteed
// hits at >= the dedup granularity. Verified here structurally: a dropped
// access always repeats the previous block address.
func tinyTrace(n int, space uint64, seed uint64) Trace {
	tr := make(Trace, n)
	x := seed
	for i := range tr {
		x = x*6364136223846793005 + 1442695040888963407
		tr[i] = Access{Addr: (x >> 33) % space}
	}
	return tr
}

func TestDedupPreservesFirstOfRun(t *testing.T) {
	tr := tinyTrace(2000, 64, 21) // tiny space: long runs at 16B blocks
	d, err := NewDedup(tr.NewSliceReader(), 16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(d)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(got))+d.Dropped != uint64(len(tr)) {
		t.Fatalf("kept %d + dropped %d != %d", len(got), d.Dropped, len(tr))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Addr>>4 == got[i-1].Addr>>4 {
			t.Fatalf("consecutive same-block accesses survived at %d", i)
		}
	}
}

func TestWindowSample(t *testing.T) {
	tr := make(Trace, 20)
	for i := range tr {
		tr[i] = Access{Addr: uint64(i)}
	}
	s, err := WindowSample(tr.NewSliceReader(), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 1, 5, 6, 10, 11, 15, 16}
	if len(got) != len(want) {
		t.Fatalf("sampled %d accesses, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Addr != w {
			t.Errorf("sample %d = %d, want %d", i, got[i].Addr, w)
		}
	}
}

func TestWindowSampleFull(t *testing.T) {
	tr := tinyTrace(50, 1000, 22)
	s, err := WindowSample(tr.NewSliceReader(), 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ReadAll(s)
	if len(got) != 50 {
		t.Errorf("full-window sample kept %d/50", len(got))
	}
}

func TestWindowSampleValidation(t *testing.T) {
	r := Trace{}.NewSliceReader()
	for _, c := range []struct{ s, w uint64 }{{0, 5}, {5, 0}, {6, 5}} {
		if _, err := WindowSample(r, c.s, c.w); err == nil {
			t.Errorf("WindowSample(%d,%d) should fail", c.s, c.w)
		}
	}
}
