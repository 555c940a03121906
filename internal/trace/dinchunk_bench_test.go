package trace_test

import (
	"bytes"
	"testing"

	"dew/internal/trace"
	"dew/internal/workload"
)

// BenchmarkDinChunk measures the chunk-parallel decoder's kernel over
// one chunk of canonical lines at block size 16, reported per line:
// random-kind lines kind-free and with the kind channel, and the
// generator's own CJPEG trace with the kind channel — the shape a
// sharded write-policy replay decodes, two thirds sequential
// instruction fetch with 6- and 8-digit addresses.
func BenchmarkDinChunk(b *testing.B) {
	const lines = 50_000
	random := trace.CanonicalDin(lines)
	cjpeg := cjpegDin(100_000)
	for _, c := range []struct {
		name  string
		text  []byte
		kinds bool
	}{
		{"kindfree", random, false},
		{"kinds", random, true},
		{"tracegen", cjpeg, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			n := bytes.Count(c.text, []byte{'\n'})
			parse := trace.NewDinChunkParser(4, c.kinds)
			b.SetBytes(int64(len(c.text)))
			b.ReportAllocs()
			for b.Loop() {
				if err := parse(c.text, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/line")
		})
	}
}

// cjpegDin renders the first n accesses of the CJPEG model at seed 1
// as .din text, the way tracegen writes it.
func cjpegDin(n int) []byte {
	var buf bytes.Buffer
	w := trace.NewDinWriter(&buf)
	if _, err := trace.Copy(w, workload.Take(workload.CJPEG.Generator(1), n).NewSliceReader()); err != nil {
		panic(err)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
