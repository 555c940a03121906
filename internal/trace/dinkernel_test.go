package trace

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// dinRefLine is one .din line decoded by the general parser alone.
type dinRefLine struct {
	a     Access
	blank bool
	err   error
}

// dinRefLines splits in at '\n' and parses every line with
// parseDinLine only — the reference the canonical-line kernel must
// reproduce on every route.
func dinRefLines(in []byte) []dinRefLine {
	var out []dinRefLine
	for line := 1; len(in) > 0; line++ {
		ln := in
		if nl := bytes.IndexByte(in, '\n'); nl >= 0 {
			ln, in = in[:nl], in[nl+1:]
		} else {
			in = nil
		}
		a, blank, err := parseDinLine(ln, line)
		out = append(out, dinRefLine{a: a, blank: blank, err: err})
	}
	return out
}

// dinRefDecode returns the accesses of lines up to the first bad one
// and that line's error.
func dinRefDecode(lines []dinRefLine) (Trace, error) {
	var tr Trace
	for _, l := range lines {
		if l.err != nil {
			return tr, l.err
		}
		if !l.blank {
			tr = append(tr, l.a)
		}
	}
	return tr, nil
}

// compressRef run-compresses tr with the kind channel, at block size 1,
// through the reader producer's route — the chunk parseDinChunk must
// form from the lines it decodes.
func compressRef(tr Trace) *runChunk {
	c := &runChunk{}
	c.reserve(true, len(tr), len(tr))
	if err := c.appendAccesses(tr, 0); err != nil {
		panic(err)
	}
	return c.finish()
}

func sameChunk(t *testing.T, label string, got, want *runChunk) {
	t.Helper()
	if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Runs, want.Runs) ||
		!slices.Equal(got.Kinds, want.Kinds) || got.Accesses != want.Accesses ||
		got.head != want.head || !slices.Equal(got.headKinds, want.headKinds) ||
		got.kindTotals != want.kindTotals {
		t.Fatalf("%s: chunk %+v, want %+v", label, *got, *want)
	}
}

// sameDinErr requires got to be the reference's error: nil for nil,
// else a *CorruptError with the same message and line.
func sameDinErr(t *testing.T, label string, got, want error) {
	t.Helper()
	if want == nil {
		if got != nil {
			t.Fatalf("%s: unexpected error %v", label, got)
		}
		return
	}
	var ce, wce *CorruptError
	if !errors.As(got, &ce) || !errors.As(want, &wce) {
		t.Fatalf("%s: error %v (%T), want a *CorruptError like %v", label, got, got, want)
	}
	if ce.Line != wce.Line || got.Error() != want.Error() {
		t.Fatalf("%s: error %q (line %d), want %q (line %d)", label, got, ce.Line, want, wce.Line)
	}
}

// FuzzDinKernel is the differential check on the canonical-line kernel:
// arbitrary bytes must give the same accesses, or the same error and
// line, through DinReader, through parseDinChunk over the whole buffer
// and cut every k lines, and through the span pipeline cutting tiny
// text chunks — against a reference that parses every line with the
// general path only.
func FuzzDinKernel(f *testing.F) {
	for _, s := range []string{
		"0 1000\n1 dead\n2 beef\n",
		"0 1000\r\n1 dead\r\n",
		"0\t1000\n  1  dead  \n",
		"0 0x1000\n1 0XdEaD\n2 0x\n",
		"0 ffffffffffffffff\n1 0123456789abcdef\n",
		"0 00000000000000001\n1 10000000000000000\n",
		"3 40\n",
		"00 40\n002 80\n",
		"0 40 trailing field\n1 80\textra\n",
		"\n\n0 40\n \n\t\n1 80\n",
		"0 40\n1 80",
		"2 A0\n2 a0\n0 FFFFFFFFFFFFFFFF\n",
		"0 \n0\n 0 40\n0  40\n",
		"0 4g\n",
		"",
	} {
		f.Add([]byte(s), uint8(len(s)))
	}
	for i, s := range dinKernelCases() {
		f.Add([]byte(s), uint8(i))
	}
	f.Fuzz(func(t *testing.T, in []byte, cut uint8) {
		if len(in) >= maxDinLine {
			t.Skip("longer than the longest .din line")
		}
		checkDinKernel(t, in, cut)
	})
}

// checkDinKernel is FuzzDinKernel's differential check on one input,
// cut every 1+cut%8 lines and into text chunks of 1+cut%32 bytes.
func checkDinKernel(t *testing.T, in []byte, cut uint8) {
	t.Helper()
	lines := dinRefLines(in)
	want, wantErr := dinRefDecode(lines)

	// DinReader: the accesses before the first bad line, then its
	// error.
	r := NewDinReader(bytes.NewReader(in))
	var got Trace
	var err error
	for {
		a, e := r.Next()
		if e != nil {
			if !errors.Is(e, io.EOF) {
				err = e
			}
			break
		}
		got = append(got, a)
	}
	sameDinErr(t, "DinReader", err, wantErr)
	if !slices.Equal(got, want) {
		t.Fatalf("DinReader decoded %v, want %v", got, want)
	}

	// parseDinChunk over the whole buffer, with kinds and kind-free.
	c, err := parseDinChunk(&runChunk{}, in, 1, bytes.Count(in, []byte{'\n'}), 0, true)
	sameDinErr(t, "whole chunk", err, wantErr)
	if err == nil {
		sameChunk(t, "whole chunk", c, compressRef(want))
	}
	free, err := parseDinChunk(&runChunk{}, in, 1, bytes.Count(in, []byte{'\n'}), 0, false)
	sameDinErr(t, "kind-free chunk", err, wantErr)
	if err == nil {
		ref := compressRef(want)
		ref.Kinds, ref.headKinds, ref.headAcc, ref.kindTotals = nil, nil, 0, [3]uint64{}
		free.headKinds = nil
		sameChunk(t, "kind-free chunk", free, ref)
	}

	// parseDinChunk over pieces of k lines, each numbered from its
	// first line; the first failing piece reports the reference
	// error.
	k := 1 + int(cut%8)
	rest, failed := in, false
	for first := 0; first < len(lines) && !failed; first += k {
		take := min(k, len(lines)-first)
		n := 0
		for range take {
			if nl := bytes.IndexByte(rest[n:], '\n'); nl >= 0 {
				n += nl + 1
			} else {
				n = len(rest)
			}
		}
		piece := rest[:n]
		rest = rest[n:]
		label := fmt.Sprintf("lines %d..%d", first+1, first+take)
		pwant, perr := dinRefDecode(lines[first : first+take])
		c, err := parseDinChunk(&runChunk{}, piece, first+1, bytes.Count(piece, []byte{'\n'}), 0, true)
		sameDinErr(t, label, err, perr)
		if err != nil {
			sameDinErr(t, label, err, wantErr)
			failed = true
			continue
		}
		sameChunk(t, label, c, compressRef(pwant))
	}
	if !failed && wantErr != nil {
		t.Fatalf("pieces decoded cleanly, want %v", wantErr)
	}

	// The span pipeline, whose producer cuts text chunks of a few
	// bytes and carries partial lines between them.
	p, err := streamDinSpansWith(context.Background(), bytes.NewReader(in), 1,
		SpanOptions{Workers: 2, Kinds: true}, 3, 1+int(cut%32))
	bs, err := drainSpans(p, err, 1, true)
	sameDinErr(t, "span pipeline", err, wantErr)
	if err == nil {
		wbs, err := MaterializeBlockStreamWithKinds(want.NewSliceReader(), 1)
		if err != nil {
			t.Fatal(err)
		}
		sameBlockStream(t, "span pipeline", bs, wbs)
	}
}

// dinKernelCases are the canonical-line kernel's boundary inputs:
// canonical lines of 1–17 digits in both cases, each ending the buffer
// with and without a newline; each byte just outside a hex digit range
// (and 0x00, 0x80, 0xff) at every digit position of a 16-digit line;
// and lines shorter than a machine word at the end of the buffer.
func dinKernelCases() []string {
	const digits = "0123456789abcdef0"
	var cases []string
	for d := 1; d <= 17; d++ {
		// A leading f, not 0, so the digit count shows in the value.
		for _, ds := range []string{"f" + digits[1:d], "F" + strings.ToUpper(digits[1:d])} {
			cases = append(cases, "2 40\n1 "+ds+"\n", "2 40\n1 "+ds)
		}
	}
	for _, c := range []byte{0x00, '/', ':', '@', 'G', '`', 'g', 0x80, 0xff} {
		for at := 0; at <= 16; at++ {
			line := []byte("0 " + digits[:16])
			if at < 16 {
				line[2+at] = c
			} else {
				line = append(line, c)
			}
			cases = append(cases, string(line)+"\n2 80\n", string(line))
		}
	}
	for n := 3; n <= 10; n++ {
		line := "1 " + strings.Repeat("9", n-2)
		cases = append(cases, "0 123456789abcdef\n"+line, "0 123456789abcdef\n"+line+"\n")
	}
	return cases
}

// TestDinKernelBoundaries runs FuzzDinKernel's differential check over
// dinKernelCases, each cut every k lines and into text chunks of every
// small size.
func TestDinKernelBoundaries(t *testing.T) {
	for _, in := range dinKernelCases() {
		for cut := range uint8(32) {
			checkDinKernel(t, []byte(in), cut)
		}
	}
}

// TestDinLongLine pins the one line-length limit both decoders share: a
// line of maxDinLine bytes or more (newline excluded) fails DinReader
// and the chunk-parallel producer alike, with the same typed error and
// line number; one byte shorter decodes.
func TestDinLongLine(t *testing.T) {
	long := func(n int) string { return "0 " + strings.Repeat("0", n-3) + "1" }
	cases := []struct {
		name string
		text string
		line int // 0: decodes cleanly
	}{
		{"limit", "1 40\n" + long(maxDinLine) + "\n2 80\n", 2},
		{"limit at EOF", "1 40\n2 80\n" + long(maxDinLine), 3},
		{"over limit", "1 40\n" + long(3*maxDinLine) + "\n2 80\n", 2},
		{"first line", long(maxDinLine+1) + "\n", 1},
		{"below limit", "1 40\n" + long(maxDinLine-1) + "\n2 80\n", 0},
		{"below limit at EOF", "1 40\n" + long(maxDinLine-1), 0},
	}
	// A reader such as gzip.Reader may return its last bytes together
	// with io.EOF, which lets bufio.Scanner hand over a final line that
	// fills its whole buffer; DataErrReader reads that way.
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"", func(r io.Reader) io.Reader { return r }},
		{" data+EOF", iotest.DataErrReader},
	}
	for _, tc := range cases {
		for _, rd := range readers {
			t.Run(tc.name+rd.name, func(t *testing.T) {
				testDinLongLine(t, tc.text, tc.line, rd.wrap)
			})
		}
	}
}

// testDinLongLine decodes text through DinReader and the span pipeline,
// each over its own wrap of the text, and requires both to decode the
// same accesses (line == 0) or to fail with "line too long" at line.
func testDinLongLine(t *testing.T, text string, line int, wrap func(io.Reader) io.Reader) {
	tr, rerr := ReadAll(NewDinReader(wrap(strings.NewReader(text))))
	p, err := StreamDinSpans(context.Background(), wrap(strings.NewReader(text)), 16, SpanOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var accesses uint64
	for s := range p.Spans() {
		accesses += s.Accesses
		p.Release(s)
	}
	perr := p.Err()
	if line == 0 {
		if rerr != nil || perr != nil {
			t.Fatalf("reader %v, pipeline %v; want clean decodes", rerr, perr)
		}
		if accesses != uint64(len(tr)) {
			t.Fatalf("pipeline decoded %d accesses, reader %d", accesses, len(tr))
		}
		return
	}
	for _, e := range []struct {
		route string
		err   error
	}{{"reader", rerr}, {"pipeline", perr}} {
		var ce *CorruptError
		if !errors.As(e.err, &ce) || ce.Line != line || ce.Msg != "line too long" || !errors.Is(e.err, bufio.ErrTooLong) {
			t.Fatalf("%s error %v, want a line-too-long CorruptError at line %d", e.route, e.err, line)
		}
	}
	if rerr.Error() != perr.Error() {
		t.Fatalf("reader error %q, pipeline error %q", rerr, perr)
	}
	// Whatever the pipeline emitted before failing is a prefix of the
	// lines before the long one.
	if accesses > uint64(line-1) {
		t.Fatalf("pipeline emitted %d accesses before failing at line %d", accesses, line)
	}
}

// TestIngestDinEarliestError puts bad lines in two text chunks, the
// later one failing at its first byte while the earlier one parses a
// long prefix first: the pipeline must report the earlier line, as the
// serial reader does, however its workers finish.
func TestIngestDinEarliestError(t *testing.T) {
	const good = 20000
	text := dinInput(good) + "bad line\n" + strings.Repeat("also bad\n", 2000)
	chunkBytes := len(dinInput(good)) + len("bad line\n")
	want := fmt.Sprintf("line %d", good+1)
	for range 20 {
		p, err := streamDinSpansWith(context.Background(), strings.NewReader(text), 16, SpanOptions{Workers: 2}, 0, chunkBytes)
		_, err = drainSpans(p, err, 16, false)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("pipeline error %v, want one naming %s", err, want)
		}
	}
}

// TestDinWriterMatchesFmt checks DinWriter byte for byte against the
// fmt rendering it replaced, on random accesses and the address
// extremes.
func TestDinWriterMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := Trace{{Addr: 0}, {Addr: math.MaxUint64, Kind: IFetch}, {Addr: 1 << 63, Kind: DataWrite}}
	for range 5000 {
		addr := rng.Uint64() >> rng.Intn(64)
		tr = append(tr, Access{Addr: addr, Kind: Kind(rng.Intn(3))})
	}
	var want strings.Builder
	for _, a := range tr {
		fmt.Fprintf(&want, "%d %x\n", a.Kind, a.Addr)
	}
	if got := string(dinText(tr)); got != want.String() {
		t.Fatalf("DinWriter output differs from fmt's %%d %%x rendering")
	}
}
