package trace

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// dinInput renders n accesses in .din form, mixing prefixes and
// trailing fields the decoder must tolerate.
func dinInput(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&sb, "%d %x\n", i%3, uint64(i)*61)
		case 1:
			fmt.Fprintf(&sb, "%d 0x%x extra trailing\n", i%3, uint64(i)*61)
		default:
			fmt.Fprintf(&sb, "  %d\t%x\n", i%3, uint64(i)*61)
		}
	}
	return sb.String()
}

// TestDinReaderDecodesAllocFree pins the decoder's allocation behavior:
// decoding is allocation-free per line. The only allocations a full
// decode performs are the fixed per-reader setup (reader, scanner and
// its buffer), so the budget here is a small constant independent of
// the line count — at 2000 lines even one allocation per line would
// blow it by orders of magnitude.
func TestDinReaderDecodesAllocFree(t *testing.T) {
	const lines = 2000
	data := dinInput(lines)
	buf := make([]Access, DefaultBatchSize)
	allocs := testing.AllocsPerRun(10, func() {
		d := NewDinReader(strings.NewReader(data))
		total := 0
		for {
			n, err := d.ReadBatch(buf)
			total += n
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatal(err)
				}
				break
			}
		}
		if total != lines {
			t.Fatalf("decoded %d accesses, want %d", total, lines)
		}
	})
	if allocs > 8 {
		t.Errorf("decoding %d lines allocated %.0f times; want a small per-reader constant (≤ 8)", lines, allocs)
	}
}

// BenchmarkDinReader measures .din text decoding through the batched
// path, over canonical lines (the kernel's fast path) and over mixed
// shapes (mostly the general fallback); allocs/op is reported and must
// stay flat (the per-reader setup only; see
// TestDinReaderDecodesAllocFree for the hard assertion).
func BenchmarkDinReader(b *testing.B) {
	const lines = 10_000
	for _, in := range []struct {
		name string
		data string
	}{{"canonical", string(canonicalDin(lines))}, {"mixed", dinInput(lines)}} {
		b.Run(in.name, func(b *testing.B) {
			buf := make([]Access, DefaultBatchSize)
			b.ReportAllocs()
			for b.Loop() {
				d := NewDinReader(strings.NewReader(in.data))
				for {
					if _, err := d.ReadBatch(buf); err != nil {
						break
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lines), "ns/line")
		})
	}
}

// canonicalDin renders n accesses the way DinWriter (and so tracegen)
// does, with the locality of a real trace: runs of nearby addresses.
func canonicalDin(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	tr := make(Trace, n)
	addr := uint64(0x7fff0000)
	for i := range tr {
		if rng.Intn(8) == 0 {
			addr = rng.Uint64() >> 32
		}
		addr += uint64(rng.Intn(16))
		tr[i] = Access{Addr: addr, Kind: Kind(rng.Intn(3))}
	}
	return dinText(tr)
}

// BenchmarkDinWriter measures .din encoding, reported per line.
func BenchmarkDinWriter(b *testing.B) {
	const lines = 50_000
	rng := rand.New(rand.NewSource(1))
	tr := make(Trace, lines)
	for i := range tr {
		tr[i] = Access{Addr: rng.Uint64() >> 32, Kind: Kind(rng.Intn(3))}
	}
	b.ReportAllocs()
	for b.Loop() {
		w := NewDinWriter(io.Discard)
		for _, a := range tr {
			if err := w.WriteAccess(a); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/lines, "ns/line")
}
