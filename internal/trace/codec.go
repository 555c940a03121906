package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// This file holds the varint/column codec behind the store's DRS1
// result blobs: a chunked-flush uvarint writer with a running CRC-32,
// and one allocation-hardened reader whose failures carry the format
// name and byte offset, so a corrupt length prefix fails cleanly
// instead of ballooning memory.

// ColWriter appends varint/byte fields and flushes them to an
// io.Writer in chunks while folding the flushed bytes into a running
// CRC-32, so a blob larger than the chunk never double-buffers. The
// writer requires a non-nil destination: the CRC only accumulates on
// flush, so callers that need the sum in memory write into a
// bytes.Buffer. Errors are sticky: the first write error silences all
// later ops and is returned by Finish.
type ColWriter struct {
	w       io.Writer
	buf     []byte
	crc     uint32
	flushed int64
	err     error
}

const colWriterChunk = 1 << 16

// NewColWriter wraps w in the column writer.
func NewColWriter(w io.Writer) *ColWriter {
	return &ColWriter{w: w, buf: make([]byte, 0, colWriterChunk)}
}

func (cw *ColWriter) maybeFlush() {
	if len(cw.buf) >= colWriterChunk {
		cw.flush()
	}
}

// flush folds the pending bytes into the CRC and writes them out.
func (cw *ColWriter) flush() {
	if cw.err != nil || len(cw.buf) == 0 {
		return
	}
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, cw.buf)
	n, err := cw.w.Write(cw.buf)
	cw.flushed += int64(n)
	cw.err = err
	cw.buf = cw.buf[:0]
}

// Bytes appends raw bytes.
func (cw *ColWriter) Bytes(p []byte) {
	if cw.err != nil {
		return
	}
	cw.buf = append(cw.buf, p...)
	cw.maybeFlush()
}

// Byte appends a single byte.
func (cw *ColWriter) Byte(b byte) {
	if cw.err != nil {
		return
	}
	cw.buf = append(cw.buf, b)
	cw.maybeFlush()
}

// Uvarint appends an unsigned varint.
func (cw *ColWriter) Uvarint(v uint64) {
	if cw.err != nil {
		return
	}
	cw.buf = binary.AppendUvarint(cw.buf, v)
	cw.maybeFlush()
}

// String appends a uvarint length prefix followed by the raw bytes.
func (cw *ColWriter) String(s string) {
	cw.Uvarint(uint64(len(s)))
	cw.Bytes([]byte(s))
}

// Sum32 flushes everything written so far and returns its CRC-32
// (IEEE). Bytes appended afterwards — the checksum trailer itself —
// are written but not folded into the sum.
func (cw *ColWriter) Sum32() uint32 {
	cw.flush()
	return cw.crc
}

// Finish writes any pending bytes without touching the CRC and returns
// the total byte count handed to w plus the sticky error.
func (cw *ColWriter) Finish() (int64, error) {
	if cw.err == nil && len(cw.buf) > 0 {
		n, err := cw.w.Write(cw.buf)
		cw.flushed += int64(n)
		cw.err = err
		cw.buf = cw.buf[:0]
	}
	return cw.flushed, cw.err
}

// ColDecoder decodes the column format from a byte slice with bounds
// checking, so a corrupt blob fails cleanly — with a position-carrying
// CorruptError or TruncatedError naming the format — instead of
// panicking or allocating unbounded memory.
type ColDecoder struct {
	b      []byte
	off    int
	format string
}

// NewColDecoder decodes b; format names the container (e.g. "DRS1") in
// decode errors.
func NewColDecoder(b []byte, format string) *ColDecoder {
	return &ColDecoder{b: b, format: format}
}

// Uvarint reads one unsigned varint; what names the field in errors.
func (d *ColDecoder) Uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, &CorruptError{Format: d.format, Offset: int64(d.off),
			Msg: fmt.Sprintf("bad varint for %s", what)}
	}
	d.off += n
	return v, nil
}

// Byte reads one byte.
func (d *ColDecoder) Byte(what string) (byte, error) {
	if d.off >= len(d.b) {
		return 0, &TruncatedError{Format: d.format, Offset: int64(d.off), Err: io.ErrUnexpectedEOF}
	}
	c := d.b[d.off]
	d.off++
	return c, nil
}

// String reads a uvarint length prefix and that many bytes. The length
// is bounded by max and by the remaining input before allocating, so a
// corrupt prefix fails cleanly.
func (d *ColDecoder) String(what string, max int) (string, error) {
	n, err := d.Uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > uint64(max) || n > uint64(len(d.b)-d.off) {
		return "", &CorruptError{Format: d.format, Offset: int64(d.off),
			Msg: fmt.Sprintf("%s length %d exceeds bound", what, n)}
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// Remaining is the number of undecoded bytes.
func (d *ColDecoder) Remaining() int { return len(d.b) - d.off }

// Corruptf builds a CorruptError at the current offset — for callers
// that validate semantic invariants the raw reads cannot see.
func (d *ColDecoder) Corruptf(format string, args ...any) error {
	return &CorruptError{Format: d.format, Offset: int64(d.off), Msg: fmt.Sprintf(format, args...)}
}
