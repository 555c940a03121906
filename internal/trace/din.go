package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// The Dinero .din trace format is one access per line:
//
//	<label> <hex address>
//
// where label 0 is a data read, 1 a data write and 2 an instruction
// fetch. Addresses are hexadecimal without a 0x prefix. Blank lines are
// ignored; anything after the address on a line is ignored (Dinero IV
// tolerates trailing fields).
//
// Both decoders — DinReader and the chunk-parallel span producer
// (parseDinChunk) — run every line through one kernel, dinCanonical,
// that accepts exactly the shape DinWriter emits: a label 0–2, one
// space, 1–16 hex digits (either case, no prefix), then '\n' or the end
// of the input. It parses such a line in one pass with a 256-entry hex
// table; a word-at-a-time (SWAR) digit parse measured slower on the
// chunk kernel. The chunk producer forms runs as it parses, its open run
// held in locals (runChunk.appendDin), so each run is written once, when
// it closes. Any other line falls back to the general field split
// (parseDinLine), which also accepts leading and separating runs of
// spaces, tabs, '\r', '\v' and '\f' (so CRLF endings), labels with
// leading zeros ("00"), 0x/0X prefixes, addresses with more than 16
// digits when the value still fits in 64 bits, and trailing fields. The
// general path is the only code that builds a decode error, so the
// kernel changes no accepted input, value, message or line number.
// Lines of maxDinLine bytes or more (newline excluded) fail both
// decoders with a "line too long" CorruptError.

// maxDinLine is the length, newline excluded, at which a .din line is
// too long for either decoder: the largest line DinReader's scanner
// buffer holds with its newline is maxDinLine-1 bytes, and Next rejects
// the one longer token the scanner can yield, a final line of exactly
// maxDinLine bytes.
const maxDinLine = 1 << 20

// errDinLineTooLong is the error both decoders return for a line of
// maxDinLine bytes or more.
func errDinLineTooLong(line int) error {
	return &CorruptError{Format: "din", Line: line, Offset: -1,
		Msg: "line too long", Err: bufio.ErrTooLong}
}

// DinReader decodes the .din format from an io.Reader.
type DinReader struct {
	scanner *bufio.Scanner
	line    int
}

// NewDinReader returns a DinReader wrapping r.
func NewDinReader(r io.Reader) *DinReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxDinLine)
	return &DinReader{scanner: sc}
}

// Next implements Reader. It returns io.EOF at end of input and a
// descriptive error (with line number) on malformed input.
//
// The hot path is allocation-free: a canonical line parses in one pass
// over the scanner's byte view (dinCanonical), any other line through
// the general field split, and only error construction allocates.
func (d *DinReader) Next() (Access, error) {
	for d.scanner.Scan() {
		d.line++
		b := d.scanner.Bytes()
		if len(b) >= maxDinLine {
			// Only a final line with no newline gets here, handed over
			// whole when the read that fills the buffer also returns
			// io.EOF.
			return Access{}, errDinLineTooLong(d.line)
		}
		if a, n := dinCanonical(b); n > 0 {
			return a, nil
		}
		a, blank, err := parseDinLine(b, d.line)
		if blank {
			continue
		}
		return a, err
	}
	if err := d.scanner.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return Access{}, errDinLineTooLong(d.line + 1)
		}
		return Access{}, err
	}
	return Access{}, io.EOF
}

// hexDigit maps a byte to its hexadecimal digit value, or 0xff for a
// byte that is not a hex digit.
var hexDigit = func() (t [256]uint8) {
	for i := range t {
		t[i] = 0xff
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = uint8(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = uint8(c-'a') + 10
		t[c-'a'+'A'] = uint8(c-'a') + 10
	}
	return t
}()

// dinCanonical parses the canonical .din line at the head of b (see the
// format comment above): a label 0–2, one space, 1–16 hex digits, then
// '\n' or the end of b. It returns the access and the bytes consumed,
// the newline included, or n == 0 when b does not start with a
// canonical line; the caller then hands the line to parseDinLine. Every
// line it accepts, parseDinLine parses to the same access.
func dinCanonical(b []byte) (a Access, n int) {
	if len(b) < 3 || b[0]-'0' > 2 || b[1] != ' ' {
		return Access{}, 0
	}
	var v uint64
	i := 2
	// At most 17 digits are read: a 17th marks a non-canonical line.
	for end := min(len(b), 2+17); i < end; i++ {
		d := hexDigit[b[i]]
		if d > 0xf {
			break
		}
		v = v<<4 | uint64(d)
	}
	if i == 2 || i > 2+16 {
		return Access{}, 0
	}
	if i < len(b) {
		if b[i] != '\n' {
			return Access{}, 0
		}
		i++
	}
	return Access{Addr: v, Kind: Kind(b[0] - '0')}, i
}

// parseDinLine is the general .din line parser, for one line without
// its newline: an index-based two-field split over the bytes, with no
// per-line allocation. It reports a line holding only whitespace as
// blank, and it is the only code that builds a .din line error.
func parseDinLine(ln []byte, line int) (a Access, blank bool, err error) {
	// First field: the label.
	i := skipSpace(ln, 0)
	if i == len(ln) {
		return Access{}, true, nil
	}
	labelStart := i
	i = skipField(ln, i)
	labelEnd := i
	// Second field: the address. Anything after it is ignored (Dinero
	// IV tolerates trailing fields).
	i = skipSpace(ln, i)
	addrStart := i
	i = skipField(ln, i)
	addrEnd := i
	if addrEnd == addrStart {
		return Access{}, false, &CorruptError{Format: "din", Line: line, Offset: -1,
			Msg: fmt.Sprintf("need label and address, got %q", bytes.TrimSpace(ln))}
	}
	label, ok := parseLabel(ln[labelStart:labelEnd])
	if !ok || !Kind(label).Valid() {
		return Access{}, false, &CorruptError{Format: "din", Line: line, Offset: -1,
			Msg: fmt.Sprintf("bad label %q", ln[labelStart:labelEnd])}
	}
	addr, ok := parseHex(ln[addrStart:addrEnd])
	if !ok {
		return Access{}, false, &CorruptError{Format: "din", Line: line, Offset: -1,
			Msg: fmt.Sprintf("bad address %q", ln[addrStart:addrEnd])}
	}
	return Access{Addr: addr, Kind: Kind(label)}, false, nil
}

// skipSpace advances past ASCII whitespace from i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\v' || b[i] == '\f') {
		i++
	}
	return i
}

// skipField advances past non-whitespace from i.
func skipField(b []byte, i int) int {
	for i < len(b) && b[i] != ' ' && b[i] != '\t' && b[i] != '\r' && b[i] != '\v' && b[i] != '\f' {
		i++
	}
	return i
}

// parseLabel parses a small decimal integer (the din label column),
// tolerating arbitrary leading zeros as strconv.ParseUint does.
func parseLabel(b []byte) (uint8, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint32
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint32(c-'0')
		if v > 255 {
			return 0, false
		}
	}
	return uint8(v), true
}

// parseHex parses a hexadecimal address, tolerating an optional 0x/0X
// prefix, and reports overflow as failure.
func parseHex(b []byte) (uint64, bool) {
	if len(b) >= 2 && b[0] == '0' && (b[1] == 'x' || b[1] == 'X') {
		b = b[2:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		d := hexDigit[c]
		if d > 0xf {
			return 0, false
		}
		if v >= 1<<60 {
			return 0, false // next shift would overflow
		}
		v = v<<4 | uint64(d)
	}
	return v, true
}

// ReadBatch implements BatchReader: it decodes up to len(dst) lines with
// one call, so consumers pay one dynamic dispatch per batch instead of
// one per line.
func (d *DinReader) ReadBatch(dst []Access) (int, error) {
	for n := range dst {
		a, err := d.Next()
		if err != nil {
			if errors.Is(err, io.EOF) && n > 0 {
				return n, nil
			}
			return n, err
		}
		dst[n] = a
	}
	return len(dst), nil
}

// DinWriter encodes accesses in the .din format, one canonical line
// per access (the shape dinCanonical parses): the label, one space and
// the address in lower-case hex without leading zeros.
type DinWriter struct {
	w    *bufio.Writer
	line [2 + 16 + 1]byte // the longest line: label, space, 16 digits, newline
}

// NewDinWriter returns a DinWriter targeting w. Call Flush when done.
func NewDinWriter(w io.Writer) *DinWriter {
	return &DinWriter{w: bufio.NewWriter(w)}
}

// WriteAccess implements Writer.
func (d *DinWriter) WriteAccess(a Access) error {
	if !a.Kind.Valid() {
		return fmt.Errorf("trace: cannot encode invalid kind %d", a.Kind)
	}
	b := append(d.line[:0], '0'+byte(a.Kind), ' ')
	b = strconv.AppendUint(b, a.Addr, 16)
	b = append(b, '\n')
	_, err := d.w.Write(b)
	return err
}

// Flush writes any buffered output to the underlying writer.
func (d *DinWriter) Flush() error { return d.w.Flush() }
