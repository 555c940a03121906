package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"dew/internal/cache"
	"dew/internal/refsim"
	"dew/internal/trace"
)

// Result entries: DRS1 blobs holding the complete outcome of one
// finished simulation pass — per-configuration statistics plus a small
// caller-defined scalar column (counters, recorded wall times) — so a
// warm query skips the simulation and the trace decode.
//
// Wire format (all integers unsigned varints via the shared column
// codec, trace.ColWriter/ColDecoder):
//
//	"DRS1" | version byte | flags byte (bit0: ref section present)
//	| engine name (uvarint length + bytes)
//	| spec key (uvarint length + bytes)
//	| scalar count | scalars...
//	| record count | records...
//	| CRC-32 (IEEE, little-endian, over everything before it)
//
// Each record is sets, assoc, blockSize, accesses, misses; with the
// ref flag every record appends the full Dinero-style section:
// per-kind accesses ×3, per-kind misses ×3, compulsory misses,
// evictions, tag comparisons, bytes-from-memory, bytes-to-memory,
// writebacks. The engine name and spec key are echoed into the blob so
// a load can prove the entry answers the question the key was derived
// from.

const (
	resultSuffix  = ".drs"
	resultMagic   = "DRS1"
	resultVersion = 1
	resultFlagRef = 1 << 0

	// Decode bounds: lengths a well-formed blob can never exceed, so a
	// corrupt prefix fails before allocating.
	maxResultEngine  = 256
	maxResultSpecKey = 4096
	maxResultScalars = 1 << 12

	// Minimum encoded record sizes (every uvarint is ≥ 1 byte), used to
	// bound the record count against the remaining input.
	minResultRecord    = 5
	minResultRefRecord = minResultRecord + 12
)

// resultFormatVersion is folded into every result key; bump it when
// the DRS1 wire format — or the meaning of a key component or scalar
// column — changes, so stale results are orphaned rather than misread.
// A variable rather than a constant so tests can simulate a bump.
var resultFormatVersion = "drs1-v1"

// ResultKey derives the entry key of a completed simulation result:
// the hex SHA-256 over the result format version, the key of the
// stream the pass replayed (a Key value, itself folding the source
// identity, block size and kinds flag), the engine (or orchestrator)
// name, and the canonical spec serialization — engine.Spec.CacheKey
// plus any orchestration axes the caller appends. Scheduling knobs
// that cannot change results (worker counts, shard fan-out of
// bit-identical replays) are deliberately absent from CacheKey, so a
// sharded warm run hits entries published by a monolithic cold one.
func ResultKey(streamKey, engine, specKey string) string {
	h := sha256.New()
	for _, part := range []string{resultFormatVersion, streamKey, engine, specKey} {
		io.WriteString(h, part)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WarmCheckPick selects which of a warm run's cached entries to
// re-simulate live: an FNV-1a hash over the warm keys, mod their count.
// Deterministic in the warm set — identical reruns re-verify the same
// entry — while any change to the set (a delta entry, an eviction, a
// new trace) rotates the choice. keys must be non-empty.
func WarmCheckPick(keys []string) int {
	h := fnv.New32a()
	for _, k := range keys {
		io.WriteString(h, k)
	}
	return int(h.Sum32() % uint32(len(keys)))
}

// ResultRecord is one configuration's cached outcome. Ref and Traffic
// are non-nil on every record of a blob whose HasRef flag is set, nil
// otherwise; Ref.Stats always equals Stats.
type ResultRecord struct {
	Config  cache.Config
	Stats   cache.Stats
	Ref     *refsim.Stats
	Traffic *refsim.Traffic
}

// ResultBlob is the decoded form of one DRS1 entry.
type ResultBlob struct {
	// Engine and SpecKey echo the key derivation (ResultKey) so loads
	// can validate that the entry answers the caller's question.
	Engine  string
	SpecKey string
	// HasRef marks blobs whose records carry the full reference
	// statistics and traffic section.
	HasRef bool
	// Scalars is a caller-defined column of pass-level values (request
	// counts, recorded wall times, verification counters). Its length
	// and ordering are part of the caller's contract: a consumer that
	// finds an unexpected count treats the entry as a miss.
	Scalars []uint64
	Records []ResultRecord
}

// MarshalBinary encodes the blob in DRS1 format.
func (rb *ResultBlob) MarshalBinary() ([]byte, error) {
	if len(rb.Engine) > maxResultEngine || len(rb.SpecKey) > maxResultSpecKey ||
		len(rb.Scalars) > maxResultScalars {
		return nil, fmt.Errorf("store: result blob exceeds format bounds")
	}
	var buf bytes.Buffer
	cw := trace.NewColWriter(&buf)
	cw.Bytes([]byte(resultMagic))
	cw.Byte(resultVersion)
	var flags byte
	if rb.HasRef {
		flags |= resultFlagRef
	}
	cw.Byte(flags)
	cw.String(rb.Engine)
	cw.String(rb.SpecKey)
	cw.Uvarint(uint64(len(rb.Scalars)))
	for _, v := range rb.Scalars {
		cw.Uvarint(v)
	}
	cw.Uvarint(uint64(len(rb.Records)))
	for i := range rb.Records {
		r := &rb.Records[i]
		cw.Uvarint(uint64(r.Config.Sets))
		cw.Uvarint(uint64(r.Config.Assoc))
		cw.Uvarint(uint64(r.Config.BlockSize))
		cw.Uvarint(r.Stats.Accesses)
		cw.Uvarint(r.Stats.Misses)
		if !rb.HasRef {
			continue
		}
		if r.Ref == nil || r.Traffic == nil {
			return nil, fmt.Errorf("store: record %d lacks the ref section of a ref-flagged result blob", i)
		}
		if r.Ref.Stats != r.Stats {
			return nil, fmt.Errorf("store: record %d ref stats disagree with the record stats", i)
		}
		for _, v := range r.Ref.AccessesByKind {
			cw.Uvarint(v)
		}
		for _, v := range r.Ref.MissesByKind {
			cw.Uvarint(v)
		}
		cw.Uvarint(r.Ref.CompulsoryMisses)
		cw.Uvarint(r.Ref.Evictions)
		cw.Uvarint(r.Ref.TagComparisons)
		cw.Uvarint(r.Traffic.BytesFromMemory)
		cw.Uvarint(r.Traffic.BytesToMemory)
		cw.Uvarint(r.Traffic.Writebacks)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.Sum32())
	cw.Bytes(tail[:])
	if _, err := cw.Finish(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a DRS1 blob, rejecting anything malformed —
// bad magic or version, checksum mismatch, lengths beyond the format
// bounds, invalid configurations, miss counts above access counts, or
// trailing bytes — with typed position-carrying errors. Any accepted
// blob re-marshals to the identical bytes (FuzzResultUnmarshal pins
// the round trip).
func (rb *ResultBlob) UnmarshalBinary(data []byte) error {
	const minBlob = len(resultMagic) + 2 /*version+flags*/ + 2 /*empty strings*/ + 2 /*counts*/ + 4 /*crc*/
	if len(data) < minBlob {
		return &trace.TruncatedError{Format: resultMagic, Offset: int64(len(data)), Err: io.ErrUnexpectedEOF}
	}
	if string(data[:len(resultMagic)]) != resultMagic {
		return &trace.CorruptError{Format: resultMagic, Offset: 0, Msg: "bad magic"}
	}
	body := data[:len(data)-4]
	if want := binary.LittleEndian.Uint32(data[len(data)-4:]); crc32.ChecksumIEEE(body) != want {
		return &trace.CorruptError{Format: resultMagic, Offset: int64(len(body)), Msg: "checksum mismatch"}
	}
	d := trace.NewColDecoder(body[len(resultMagic):], resultMagic)
	version, err := d.Byte("version")
	if err != nil {
		return err
	}
	if version != resultVersion {
		return d.Corruptf("unsupported version %d", version)
	}
	flags, err := d.Byte("flags")
	if err != nil {
		return err
	}
	if flags&^byte(resultFlagRef) != 0 {
		return d.Corruptf("unknown flags %#x", flags)
	}
	rb.HasRef = flags&resultFlagRef != 0
	if rb.Engine, err = d.String("engine name", maxResultEngine); err != nil {
		return err
	}
	if rb.SpecKey, err = d.String("spec key", maxResultSpecKey); err != nil {
		return err
	}
	nScalars, err := d.Uvarint("scalar count")
	if err != nil {
		return err
	}
	if nScalars > maxResultScalars || nScalars > uint64(d.Remaining()) {
		return d.Corruptf("scalar count %d exceeds bound", nScalars)
	}
	rb.Scalars = nil
	if nScalars > 0 {
		rb.Scalars = make([]uint64, nScalars)
	}
	for i := range rb.Scalars {
		if rb.Scalars[i], err = d.Uvarint("scalar"); err != nil {
			return err
		}
	}
	nRecords, err := d.Uvarint("record count")
	if err != nil {
		return err
	}
	minRecord := uint64(minResultRecord)
	if rb.HasRef {
		minRecord = minResultRefRecord
	}
	if nRecords > uint64(d.Remaining())/minRecord {
		return d.Corruptf("record count %d exceeds input", nRecords)
	}
	rb.Records = nil
	if nRecords > 0 {
		rb.Records = make([]ResultRecord, nRecords)
	}
	for i := range rb.Records {
		r := &rb.Records[i]
		var sets, assoc, block uint64
		if sets, err = d.Uvarint("sets"); err != nil {
			return err
		}
		if assoc, err = d.Uvarint("assoc"); err != nil {
			return err
		}
		if block, err = d.Uvarint("block size"); err != nil {
			return err
		}
		if sets > 1<<30 || assoc > 1<<30 || block > 1<<30 {
			return d.Corruptf("configuration out of range")
		}
		if r.Config, err = cache.NewConfig(int(sets), int(assoc), int(block)); err != nil {
			return d.Corruptf("invalid configuration: %v", err)
		}
		if r.Stats.Accesses, err = d.Uvarint("accesses"); err != nil {
			return err
		}
		if r.Stats.Misses, err = d.Uvarint("misses"); err != nil {
			return err
		}
		if r.Stats.Misses > r.Stats.Accesses {
			return d.Corruptf("misses %d exceed accesses %d", r.Stats.Misses, r.Stats.Accesses)
		}
		if !rb.HasRef {
			continue
		}
		ref := &refsim.Stats{Stats: r.Stats}
		for k := range ref.AccessesByKind {
			if ref.AccessesByKind[k], err = d.Uvarint("accesses by kind"); err != nil {
				return err
			}
		}
		for k := range ref.MissesByKind {
			if ref.MissesByKind[k], err = d.Uvarint("misses by kind"); err != nil {
				return err
			}
		}
		if ref.CompulsoryMisses, err = d.Uvarint("compulsory misses"); err != nil {
			return err
		}
		if ref.Evictions, err = d.Uvarint("evictions"); err != nil {
			return err
		}
		if ref.TagComparisons, err = d.Uvarint("tag comparisons"); err != nil {
			return err
		}
		tr := &refsim.Traffic{}
		if tr.BytesFromMemory, err = d.Uvarint("bytes from memory"); err != nil {
			return err
		}
		if tr.BytesToMemory, err = d.Uvarint("bytes to memory"); err != nil {
			return err
		}
		if tr.Writebacks, err = d.Uvarint("writebacks"); err != nil {
			return err
		}
		r.Ref, r.Traffic = ref, tr
	}
	if d.Remaining() != 0 {
		return d.Corruptf("%d trailing bytes after records", d.Remaining())
	}
	return nil
}

func (s *Store) resultPath(key string) string {
	return filepath.Join(s.dir, key+resultSuffix)
}

// GetResult loads the result entry for key. A missing entry returns
// ErrMiss; a malformed blob, or one whose engine/spec-key echo
// disagrees with the caller's derivation, is quarantined and returns a
// CorruptEntryError (fall back to simulating). On a hit the entry's
// mtime is bumped (LRU recency).
func (s *Store) GetResult(ctx context.Context, key, engine, specKey string) (*ResultBlob, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validKey(key); err != nil {
		return nil, err
	}
	path := s.resultPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.resultMisses.Add(1)
			return nil, ErrMiss
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	rb := &ResultBlob{}
	if err := rb.UnmarshalBinary(data); err != nil {
		s.quarantine(path)
		return nil, &CorruptEntryError{Key: key, Path: path, Err: err}
	}
	if rb.Engine != engine || rb.SpecKey != specKey {
		s.quarantine(path)
		return nil, &CorruptEntryError{Key: key, Path: path,
			Err: fmt.Errorf("spec mismatch: entry answers %s %q, key derives %s %q",
				rb.Engine, rb.SpecKey, engine, specKey)}
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best effort: recency only
	s.resultHits.Add(1)
	return rb, nil
}

// PutResult publishes a result blob under key: the blob is written to
// a temp file in the cache directory, synced, and renamed into place,
// so concurrent readers (including other processes) see either the old
// state or the complete entry. Publishing past the size cap evicts
// least-recently-used entries. Publication follows simulation, which
// the callers already delta-schedule, and a double publish is
// idempotent — equal keys mean equal blobs.
func (s *Store) PutResult(ctx context.Context, key string, rb *ResultBlob) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := validKey(key); err != nil {
		return err
	}
	data, err := rb.MarshalBinary()
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(s.dir, tmpPrefix)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.resultPath(key))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing %s: %w", key, err)
	}
	s.resultStores.Add(1)
	if s.maxBytes > 0 {
		s.enforceCap(key + resultSuffix)
	}
	return nil
}

// DropResult removes the result entry for key — the recourse when a
// sampled warm check finds a cached result contradicting a live
// re-simulation, so the entry cannot serve another run. A missing
// entry is not an error.
func (s *Store) DropResult(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	if err := os.Remove(s.resultPath(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
