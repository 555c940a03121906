package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// DBS1 is the self-describing on-disk form of one BlockStream — the
// persistent artifact behind the content-addressed store
// (internal/store): decode once, publish the finest
// rung, and every later run loads it with a checksummed file read
// instead of a trace decode (the fold ladder re-derives the coarser
// rungs in O(runs)).
//
// Wire format (integers are unsigned varints unless noted; the column
// section is the shared column codec in codec.go):
//
//	magic "DBS1" (4 bytes)
//	version (1 byte, currently 1)
//	flags (1 byte): bit0 = kind channel present
//	blockSize
//	accesses, run count n, n block IDs, n run weights,
//	and with kinds: n records of (W0, W1, W2, Lead, First byte)
//	CRC-32 (IEEE) of every preceding byte (4 bytes little-endian)
//
// Decoding validates everything a consumer relies on: the checksum,
// the geometry (power-of-two block size), per-run invariants (weights
// in [1, 2^32-1], kind totals matching run weights, adjacent runs
// merged unless split by uint32 overflow) and the access total — so a
// blob that decodes successfully replays bit-identically to the
// stream that produced it.

var streamMagic = [4]byte{'D', 'B', 'S', '1'}

const (
	streamVersion    = 1
	streamFlagKinds  = 1 << 0
	streamFormatName = "dbs1"
	// streamMinLen is the smallest possible blob: magic, version,
	// flags, three 1-byte varints (block size, accesses, run count 0)
	// and the checksum trailer.
	streamMinLen = 4 + 1 + 1 + 3 + 4
)

func (b *BlockStream) checkGeometry() error {
	if b.BlockSize < 1 || b.BlockSize > 1<<30 || b.BlockSize&(b.BlockSize-1) != 0 {
		return fmt.Errorf("trace: stream block size %d is not a positive power of two", b.BlockSize)
	}
	if len(b.Runs) != len(b.IDs) {
		return fmt.Errorf("trace: stream run column length %d != %d IDs", len(b.Runs), len(b.IDs))
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler, encoding the
// stream as one DBS1 blob.
func (b *BlockStream) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteTo implements io.WriterTo: the streaming encode path. Bytes are
// flushed to w in bounded chunks with a running checksum, so a blob
// larger than the chunk size is never buffered whole.
func (b *BlockStream) WriteTo(w io.Writer) (int64, error) {
	if err := b.checkGeometry(); err != nil {
		return 0, err
	}
	kinds := b.HasKinds()
	cw := newColWriter(w)
	cw.bytes(streamMagic[:])
	cw.byteVal(streamVersion)
	var flags byte
	if kinds {
		flags |= streamFlagKinds
	}
	cw.byteVal(flags)
	cw.uvarint(uint64(b.BlockSize))
	cw.writeStreamColumns(b, kinds)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.sum32())
	cw.bytes(trailer[:])
	return cw.finish()
}

// validateStream checks the cross-column invariants every stream
// consumer relies on; the per-field ranges were already enforced
// during column decode.
func validateStream(s *BlockStream) error {
	corrupt := func(msg string) error {
		return &CorruptError{Format: streamFormatName, Offset: -1, Msg: msg}
	}
	var sum uint64
	for i, w := range s.Runs {
		sum += uint64(w)
		if i > 0 && s.IDs[i] == s.IDs[i-1] && s.Runs[i-1] != math.MaxUint32 {
			return corrupt(fmt.Sprintf("unmerged adjacent runs of block %#x at run %d", s.IDs[i], i))
		}
	}
	if sum != s.Accesses {
		return corrupt(fmt.Sprintf("access count %d != sum of run weights %d", s.Accesses, sum))
	}
	for i := range s.Kinds {
		if got := s.Kinds[i].Total(); got != uint64(s.Runs[i]) {
			return corrupt(fmt.Sprintf("kind total %d != run weight %d at run %d", got, s.Runs[i], i))
		}
	}
	return nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler: the
// exact-sized allocating decode path. The checksum is verified over
// the whole blob first, then the columns decode through the shared
// hardened reader (column lengths bounded by the remaining input).
// Corrupt blobs return position-carrying errors matching ErrCorrupt;
// short ones match ErrTruncated.
func (b *BlockStream) UnmarshalBinary(data []byte) error {
	if len(data) >= 4 && [4]byte(data[:4]) != streamMagic {
		return &CorruptError{Format: streamFormatName, Offset: 0, Msg: "bad magic"}
	}
	if len(data) < streamMinLen {
		return &TruncatedError{Format: streamFormatName, Offset: int64(len(data)), Err: io.ErrUnexpectedEOF}
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return &CorruptError{Format: streamFormatName, Offset: int64(len(body)),
			Msg: fmt.Sprintf("checksum mismatch: computed %#08x, stored %#08x", got, want)}
	}
	d := &colDecoder{b: body, off: len(streamMagic), format: streamFormatName}
	version, err := d.byteVal("version")
	if err != nil {
		return err
	}
	if version != streamVersion {
		return &CorruptError{Format: streamFormatName, Offset: int64(d.off - 1),
			Msg: fmt.Sprintf("unsupported version %d", version)}
	}
	flags, err := d.byteVal("flags")
	if err != nil {
		return err
	}
	if flags&^byte(streamFlagKinds) != 0 {
		return &CorruptError{Format: streamFormatName, Offset: int64(d.off - 1),
			Msg: fmt.Sprintf("unknown flags %#x", flags)}
	}
	blockSize, err := d.uvarint("block size")
	if err != nil {
		return err
	}
	if blockSize < 1 || blockSize > 1<<30 || blockSize&(blockSize-1) != 0 {
		return &CorruptError{Format: streamFormatName, Offset: int64(d.off), Msg: fmt.Sprintf("bad block size %d", blockSize)}
	}
	out := BlockStream{BlockSize: int(blockSize)}
	if err := d.readStreamColumns(&out, flags&streamFlagKinds != 0); err != nil {
		return err
	}
	if d.off != len(body) {
		return &CorruptError{Format: streamFormatName, Offset: int64(d.off), Msg: "trailing bytes"}
	}
	if err := validateStream(&out); err != nil {
		return err
	}
	*b = out
	return nil
}

// dbsReader decodes the DBS1 wire format incrementally from an
// io.Reader: bytes are pulled through a bounded internal buffer and
// folded into the running checksum as they are consumed, so a blob
// larger than the buffer is never held whole.
type dbsReader struct {
	r        io.Reader
	buf      []byte
	pos, end int
	crc      uint32
	crcDone  bool // set once the column section ends; trailer bytes stay out of the sum
	off      int64
}

func (d *dbsReader) fill() error {
	if !d.crcDone {
		d.crc = crc32.Update(d.crc, crc32.IEEETable, d.buf[:d.pos])
	}
	d.pos, d.end = 0, 0
	for {
		n, err := d.r.Read(d.buf)
		if n > 0 {
			d.end = n
			return nil
		}
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			if err == io.ErrUnexpectedEOF {
				return &TruncatedError{Format: streamFormatName, Offset: d.off, Err: err}
			}
			return err
		}
	}
}

// flushCRC folds the consumed-but-unfolded bytes into the checksum and
// freezes it; called right before the trailer is read.
func (d *dbsReader) flushCRC() {
	d.crc = crc32.Update(d.crc, crc32.IEEETable, d.buf[:d.pos])
	d.crcDone = true
}

func (d *dbsReader) readByte() (byte, error) {
	if d.pos == d.end {
		if err := d.fill(); err != nil {
			return 0, err
		}
	}
	c := d.buf[d.pos]
	d.pos++
	d.off++
	return c, nil
}

func (d *dbsReader) uvarint(what string) (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		c, err := d.readByte()
		if err != nil {
			return 0, err
		}
		if c < 0x80 {
			if shift == 63 && c > 1 {
				break
			}
			return v | uint64(c)<<shift, nil
		}
		v |= uint64(c&0x7f) << shift
	}
	return 0, &CorruptError{Format: streamFormatName, Offset: d.off,
		Msg: fmt.Sprintf("bad varint for %s", what)}
}

// ReadFrom implements io.ReaderFrom: the streaming decode path,
// counterpart of WriteTo. Unlike UnmarshalBinary the total input size
// is unknown up front, so column allocation grows geometrically with
// the bytes actually decoded (bounded by the append discipline) rather
// than trusting the length prefix, and the checksum is verified
// incrementally. The internal buffer may read past the blob's end (one
// blob per file is the expected layout); the stream is only stored to
// *b if the whole blob — checksum included — validates, and the
// returned count is the blob length in bytes.
func (b *BlockStream) ReadFrom(r io.Reader) (int64, error) {
	d := &dbsReader{r: r, buf: make([]byte, colWriterChunk)}
	corrupt := func(off int64, format string, args ...any) error {
		return &CorruptError{Format: streamFormatName, Offset: off, Msg: fmt.Sprintf(format, args...)}
	}
	var magic [4]byte
	for i := range magic {
		c, err := d.readByte()
		if err != nil {
			return d.off, err
		}
		magic[i] = c
	}
	if magic != streamMagic {
		return d.off, corrupt(0, "bad magic")
	}
	version, err := d.readByte()
	if err != nil {
		return d.off, err
	}
	if version != streamVersion {
		return d.off, corrupt(d.off-1, "unsupported version %d", version)
	}
	flags, err := d.readByte()
	if err != nil {
		return d.off, err
	}
	if flags&^byte(streamFlagKinds) != 0 {
		return d.off, corrupt(d.off-1, "unknown flags %#x", flags)
	}
	kinds := flags&streamFlagKinds != 0
	blockSize, err := d.uvarint("block size")
	if err != nil {
		return d.off, err
	}
	if blockSize < 1 || blockSize > 1<<30 || blockSize&(blockSize-1) != 0 {
		return d.off, corrupt(d.off, "bad block size %d", blockSize)
	}
	out := BlockStream{BlockSize: int(blockSize)}
	if out.Accesses, err = d.uvarint("accesses"); err != nil {
		return d.off, err
	}
	n, err := d.uvarint("run count")
	if err != nil {
		return d.off, err
	}
	if n > math.MaxInt {
		return d.off, corrupt(d.off, "run count %d exceeds input", n)
	}
	// Cap the initial allocation: each run costs at least 2 bytes on
	// the wire, so a length prefix far beyond the bytes that actually
	// arrive can at most cost one buffer's worth of over-allocation
	// before the decode loop hits the truncation.
	capHint := int(n)
	if capHint > colWriterChunk {
		capHint = colWriterChunk
	}
	if n > 0 {
		out.IDs = make([]uint64, 0, capHint)
		out.Runs = make([]uint32, 0, capHint)
	}
	for i := uint64(0); i < n; i++ {
		id, err := d.uvarint("block ID")
		if err != nil {
			return d.off, err
		}
		out.IDs = append(out.IDs, id)
	}
	for i := uint64(0); i < n; i++ {
		w, err := d.uvarint("run weight")
		if err != nil {
			return d.off, err
		}
		if w == 0 || w > math.MaxUint32 {
			return d.off, corrupt(d.off, "bad run weight %d", w)
		}
		out.Runs = append(out.Runs, uint32(w))
	}
	if kinds {
		out.Kinds = make([]KindRun, 0, capHint)
		for i := uint64(0); i < n; i++ {
			var kr KindRun
			for wi := range kr.W {
				w, err := d.uvarint("kind weight")
				if err != nil {
					return d.off, err
				}
				if w > math.MaxUint32 {
					return d.off, corrupt(d.off, "bad kind weight %d", w)
				}
				kr.W[wi] = uint32(w)
			}
			lead, err := d.uvarint("kind lead")
			if err != nil {
				return d.off, err
			}
			if lead > math.MaxUint32 {
				return d.off, corrupt(d.off, "bad kind lead %d", lead)
			}
			kr.Lead = uint32(lead)
			first, err := d.readByte()
			if err != nil {
				return d.off, err
			}
			if !Kind(first).Valid() {
				return d.off, corrupt(d.off-1, "bad kind %d", first)
			}
			kr.First = Kind(first)
			out.Kinds = append(out.Kinds, kr)
		}
	}
	d.flushCRC()
	var trailer [4]byte
	for i := range trailer {
		c, err := d.readByte()
		if err != nil {
			return d.off, err
		}
		trailer[i] = c
	}
	if want := binary.LittleEndian.Uint32(trailer[:]); d.crc != want {
		return d.off, corrupt(d.off-4,
			"checksum mismatch: computed %#08x, stored %#08x", d.crc, want)
	}
	if err := validateStream(&out); err != nil {
		return d.off, err
	}
	// Trim outsized append slack so a long-lived loaded stream costs
	// what it holds (a near-full column is kept as is).
	if cap(out.IDs) > len(out.IDs)+len(out.IDs)/8 {
		out.IDs = cloneCol(out.IDs)
		out.Runs = cloneCol(out.Runs)
		if out.Kinds != nil {
			out.Kinds = cloneCol(out.Kinds)
		}
	}
	*b = out
	return d.off, nil
}

// cloneCol copies a column preserving nil-ness (a nil column and an
// empty one are distinct: HasKinds and DeepEqual both care).
func cloneCol[T any](s []T) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}
