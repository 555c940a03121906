package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// This file holds the varint/column codec behind the on-disk formats:
// DBS1 stream blobs (streamio.go), the span-blob spool (spanblob.go)
// and, through ColWriter/ColDecoder, the store's DRS1 result blobs.
// BlockStream columns are serialized one way — accesses, run count n,
// n block IDs, n run weights, and with kinds n records of (W0, W1, W2,
// Lead, First byte), all unsigned varints except the trailing kind
// byte — and decode through one allocation-hardened reader: every
// column length is bounded by the remaining input before allocating,
// so a corrupt length prefix fails cleanly instead of ballooning
// memory.

// colWriter appends varint/byte fields and flushes them to an
// io.Writer in chunks while folding the flushed bytes into a running
// CRC-32, so a blob larger than the chunk never double-buffers. Errors
// are sticky: the first write error silences all later ops and is
// returned by finish.
type colWriter struct {
	w       io.Writer
	buf     []byte
	crc     uint32
	flushed int64
	err     error
}

const colWriterChunk = 1 << 16

func newColWriter(w io.Writer) *colWriter {
	return &colWriter{w: w, buf: make([]byte, 0, colWriterChunk)}
}

func (cw *colWriter) maybeFlush() {
	if len(cw.buf) >= colWriterChunk {
		cw.flush()
	}
}

// flush folds the pending bytes into the CRC and writes them out.
func (cw *colWriter) flush() {
	if cw.err != nil || len(cw.buf) == 0 {
		return
	}
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, cw.buf)
	n, err := cw.w.Write(cw.buf)
	cw.flushed += int64(n)
	cw.err = err
	cw.buf = cw.buf[:0]
}

func (cw *colWriter) bytes(p []byte) {
	if cw.err != nil {
		return
	}
	cw.buf = append(cw.buf, p...)
	cw.maybeFlush()
}

func (cw *colWriter) byteVal(b byte) {
	if cw.err != nil {
		return
	}
	cw.buf = append(cw.buf, b)
	cw.maybeFlush()
}

func (cw *colWriter) uvarint(v uint64) {
	if cw.err != nil {
		return
	}
	cw.buf = binary.AppendUvarint(cw.buf, v)
	cw.maybeFlush()
}

// sum32 flushes everything written so far and returns its CRC-32
// (IEEE). Bytes appended afterwards (the checksum trailer itself) are
// written but not folded into the sum.
func (cw *colWriter) sum32() uint32 {
	cw.flush()
	return cw.crc
}

// finish writes any pending bytes without touching the CRC and returns
// the total byte count handed to w plus the sticky error.
func (cw *colWriter) finish() (int64, error) {
	if cw.err == nil && len(cw.buf) > 0 {
		n, err := cw.w.Write(cw.buf)
		cw.flushed += int64(n)
		cw.err = err
		cw.buf = cw.buf[:0]
	}
	return cw.flushed, cw.err
}

// writeStreamColumns appends one stream's columns: accesses, run count,
// IDs, run weights, and (when kinds is set) the kind records.
func (cw *colWriter) writeStreamColumns(s *BlockStream, kinds bool) {
	if cw.err != nil {
		return
	}
	if kinds && len(s.Kinds) != len(s.IDs) {
		cw.err = fmt.Errorf("trace: kind column length %d != %d runs", len(s.Kinds), len(s.IDs))
		return
	}
	cw.uvarint(s.Accesses)
	cw.uvarint(uint64(len(s.IDs)))
	for _, id := range s.IDs {
		cw.uvarint(id)
	}
	for _, w := range s.Runs {
		cw.uvarint(uint64(w))
	}
	if kinds {
		for i := range s.Kinds {
			kr := &s.Kinds[i]
			cw.uvarint(uint64(kr.W[0]))
			cw.uvarint(uint64(kr.W[1]))
			cw.uvarint(uint64(kr.W[2]))
			cw.uvarint(uint64(kr.Lead))
			cw.byteVal(byte(kr.First))
		}
	}
}

// colDecoder decodes the shared wire format from a byte slice with
// bounds checking so a corrupt blob fails cleanly — with a
// position-carrying error naming the format — instead of panicking or
// allocating unbounded memory.
type colDecoder struct {
	b      []byte
	off    int
	format string
}

func (d *colDecoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, &CorruptError{Format: d.format, Offset: int64(d.off),
			Msg: fmt.Sprintf("bad varint for %s", what)}
	}
	d.off += n
	return v, nil
}

func (d *colDecoder) byteVal(what string) (byte, error) {
	if d.off >= len(d.b) {
		return 0, &TruncatedError{Format: d.format, Offset: int64(d.off), Err: io.ErrUnexpectedEOF}
	}
	c := d.b[d.off]
	d.off++
	return c, nil
}

// readStreamColumns decodes one stream's columns into s (BlockSize is
// the caller's to set). Exact-sized allocation: the run count is
// checked against the remaining input — each run costs at least 2
// bytes (ID + weight) — before any column is allocated.
func (d *colDecoder) readStreamColumns(s *BlockStream, kinds bool) error {
	var err error
	if s.Accesses, err = d.uvarint("accesses"); err != nil {
		return err
	}
	n, err := d.uvarint("run count")
	if err != nil {
		return err
	}
	if n > uint64(len(d.b)-d.off) {
		return &CorruptError{Format: d.format, Offset: int64(d.off), Msg: fmt.Sprintf("run count %d exceeds input", n)}
	}
	if n > 0 {
		s.IDs = make([]uint64, n)
		s.Runs = make([]uint32, n)
	}
	for i := range s.IDs {
		if s.IDs[i], err = d.uvarint("block ID"); err != nil {
			return err
		}
	}
	for i := range s.Runs {
		w, err := d.uvarint("run weight")
		if err != nil {
			return err
		}
		if w == 0 || w > math.MaxUint32 {
			return &CorruptError{Format: d.format, Offset: int64(d.off), Msg: fmt.Sprintf("bad run weight %d", w)}
		}
		s.Runs[i] = uint32(w)
	}
	if kinds {
		s.Kinds = make([]KindRun, n)
		for i := range s.Kinds {
			if err := d.readKindRun(&s.Kinds[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ColWriter exposes the shared column codec to sibling on-disk formats
// maintained outside this package — the store's DRS1 result blobs are
// written with it — so every artifact format shares one chunked-flush
// uvarint writer with a running CRC-32 and one allocation-hardened
// decoder on the way back. The writer requires a non-nil destination:
// the CRC only accumulates on flush, so callers that need the sum in
// memory write into a bytes.Buffer.
type ColWriter struct {
	cw *colWriter
}

// NewColWriter wraps w in the shared column writer. Errors are sticky
// and surfaced by Finish.
func NewColWriter(w io.Writer) ColWriter {
	return ColWriter{cw: newColWriter(w)}
}

// Bytes appends raw bytes.
func (c ColWriter) Bytes(p []byte) { c.cw.bytes(p) }

// Byte appends a single byte.
func (c ColWriter) Byte(b byte) { c.cw.byteVal(b) }

// Uvarint appends an unsigned varint.
func (c ColWriter) Uvarint(v uint64) { c.cw.uvarint(v) }

// String appends a uvarint length prefix followed by the raw bytes.
func (c ColWriter) String(s string) {
	c.cw.uvarint(uint64(len(s)))
	c.cw.bytes([]byte(s))
}

// Sum32 flushes everything written so far and returns its CRC-32
// (IEEE). Bytes appended afterwards — the checksum trailer itself —
// are written but not folded into the sum.
func (c ColWriter) Sum32() uint32 { return c.cw.sum32() }

// Finish flushes pending bytes and returns the total byte count plus
// the sticky error.
func (c ColWriter) Finish() (int64, error) { return c.cw.finish() }

// ColDecoder is the exported face of the shared column decoder: every
// read is bounds-checked and failures carry the format name and byte
// offset (CorruptError / TruncatedError), so sibling formats inherit
// the same hardening as DBS1.
type ColDecoder struct {
	d colDecoder
}

// NewColDecoder decodes the shared wire format from b; format names
// the container (e.g. "DRS1") in decode errors.
func NewColDecoder(b []byte, format string) *ColDecoder {
	return &ColDecoder{d: colDecoder{b: b, format: format}}
}

// Uvarint reads one unsigned varint; what names the field in errors.
func (c *ColDecoder) Uvarint(what string) (uint64, error) { return c.d.uvarint(what) }

// Byte reads one byte.
func (c *ColDecoder) Byte(what string) (byte, error) { return c.d.byteVal(what) }

// String reads a uvarint length prefix and that many bytes. The length
// is bounded by max and by the remaining input before allocating, so a
// corrupt prefix fails cleanly.
func (c *ColDecoder) String(what string, max int) (string, error) {
	n, err := c.d.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > uint64(max) || n > uint64(len(c.d.b)-c.d.off) {
		return "", &CorruptError{Format: c.d.format, Offset: int64(c.d.off),
			Msg: fmt.Sprintf("%s length %d exceeds bound", what, n)}
	}
	s := string(c.d.b[c.d.off : c.d.off+int(n)])
	c.d.off += int(n)
	return s, nil
}

// Offset is the current decode position, for error reporting.
func (c *ColDecoder) Offset() int64 { return int64(c.d.off) }

// Remaining is the number of undecoded bytes.
func (c *ColDecoder) Remaining() int { return len(c.d.b) - c.d.off }

// Corruptf builds a CorruptError at the current offset — for callers
// that validate semantic invariants the raw reads cannot see.
func (c *ColDecoder) Corruptf(format string, args ...any) error {
	return &CorruptError{Format: c.d.format, Offset: int64(c.d.off), Msg: fmt.Sprintf(format, args...)}
}

func (d *colDecoder) readKindRun(kr *KindRun) error {
	for wi := range kr.W {
		w, err := d.uvarint("kind weight")
		if err != nil {
			return err
		}
		if w > math.MaxUint32 {
			return &CorruptError{Format: d.format, Offset: int64(d.off), Msg: fmt.Sprintf("bad kind weight %d", w)}
		}
		kr.W[wi] = uint32(w)
	}
	lead, err := d.uvarint("kind lead")
	if err != nil {
		return err
	}
	if lead > math.MaxUint32 {
		return &CorruptError{Format: d.format, Offset: int64(d.off), Msg: fmt.Sprintf("bad kind lead %d", lead)}
	}
	kr.Lead = uint32(lead)
	first, err := d.byteVal("kind first")
	if err != nil {
		return err
	}
	if !Kind(first).Valid() {
		return &CorruptError{Format: d.format, Offset: int64(d.off - 1), Msg: fmt.Sprintf("bad kind %d", first)}
	}
	kr.First = Kind(first)
	return nil
}
