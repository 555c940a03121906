// Package store is a content-addressed on-disk cache of finished
// simulation results — the layer that makes a warm run skip the
// simulation, and with it the trace decode.
//
// Each entry is a DRS1 blob (result.go): the per-configuration
// statistics of one finished pass, named by the hex SHA-256 over the
// derivation of the stream the pass replayed (Key: the source trace's
// identity — the SHA-256 of the file bytes, or a digest of an
// in-memory trace — the block size and the kinds flag), the engine
// name, the canonical spec serialization (engine.Spec.CacheKey) and the
// result format version (ResultKey). Equal keys mean bit-identical
// content, so a hit can replace a simulation without any further
// comparison; any change to the inputs — or to the wire format —
// changes the key and the stale entry simply stops being found.
// Streams themselves are never stored: decoding a trace again is
// cheaper than loading a serialized copy of its stream.
//
// The store is safe for concurrent use by multiple goroutines and, for
// reads, by multiple processes: entries are published atomically by
// writing a temp file in the same directory and renaming it into
// place, so a reader never observes a half-written blob. Corrupt
// entries (checksum mismatch, spec-echo mismatch) are detected on
// load, quarantined by renaming to a .bad suffix, and reported with a
// typed error so callers fall back to re-simulating; GC removes
// quarantined files (and the stream entries older builds left behind)
// and enforces the MaxBytes size cap by least-recently-used eviction
// (recency is the entry file's mtime, bumped on every hit).
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dew/internal/trace"
)

const (
	// formatVersion is folded into every Key. Key names a stream
	// derivation inside every result key, so the string is frozen:
	// changing it would orphan every result entry. (It names the stream
	// format earlier builds cached next to the results.)
	formatVersion = "dbs1-v1"

	quarantineSuffix = ".bad"
	tmpPrefix        = "tmp-"

	// legacyStreamSuffix marks the stream entries earlier builds
	// published next to the results. Nothing reads them any more, so GC
	// and Clear reclaim them as dead files.
	legacyStreamSuffix = ".dbs"

	// tmpReapAge is how long a temp file must sit unmodified before GC
	// treats it as abandoned. Live temp files — a PutResult about to
	// rename — belong to running publishes, possibly in another
	// process; reaping one would make that publish fail.
	tmpReapAge = time.Hour
)

// ErrMiss is returned by GetResult when the store holds no entry for
// the key.
var ErrMiss = errors.New("store: miss")

// CorruptEntryError reports a cache entry that failed validation on
// load. The entry has already been quarantined (renamed to a .bad
// file); the caller is expected to fall back to re-simulating. It
// matches trace.ErrCorrupt via errors.Is when the underlying decode
// error does.
type CorruptEntryError struct {
	Key  string
	Path string
	Err  error
}

func (e *CorruptEntryError) Error() string {
	return fmt.Sprintf("store: corrupt entry %s (quarantined): %v", e.Key, e.Err)
}

func (e *CorruptEntryError) Unwrap() error { return e.Err }

// Options configures a Store.
type Options struct {
	// MaxBytes caps the total size of live entries; publishing past the
	// cap evicts least-recently-used entries until it holds. 0 means
	// uncapped.
	MaxBytes int64
	// Deprecated: MemBytes sized an in-process tier of decoded streams
	// that no longer exists. It is ignored.
	MemBytes int64
}

// Stats counts store traffic since Open.
type Stats struct {
	ResultHits   uint64 // result entries served from disk
	ResultMisses uint64 // result lookups that found no entry
	ResultStores uint64 // result entries published
	Evictions    uint64 // entries removed to satisfy the size cap
	Quarantines  uint64 // corrupt entries renamed aside

	// Deprecated: Hits, MemHits and Stores counted the stream tiers,
	// which no longer exist. They are always zero.
	Hits, MemHits, Stores uint64
}

// DiskStats describes what is on disk right now.
type DiskStats struct {
	Entries int   // live result entries
	Bytes   int64 // total size of live entries
	// Quarantined counts the dead files GC reclaims: corrupt entries
	// renamed aside, and stream entries left by earlier builds.
	Quarantined      int
	QuarantinedBytes int64
	Temp             int // temp files: in-flight or abandoned publishes
}

// Store is one cache directory. The zero value is not usable; call
// Open.
type Store struct {
	dir      string
	maxBytes int64

	evictions, quarantines                 atomic.Uint64
	resultHits, resultMisses, resultStores atomic.Uint64
}

// Open creates the directory if needed and returns a Store over it.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, maxBytes: opt.MaxBytes}, nil
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		ResultHits:   s.resultHits.Load(),
		ResultMisses: s.resultMisses.Load(),
		ResultStores: s.resultStores.Load(),
		Evictions:    s.evictions.Load(),
		Quarantines:  s.quarantines.Load(),
	}
}

// FileID returns the content identity of a trace file: "file:" plus
// the hex SHA-256 of its bytes (as stored — a gzipped trace hashes the
// gzip bytes). Two paths holding identical bytes share one identity,
// so renamed or copied traces still hit.
func FileID(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("store: hashing %s: %w", path, err)
	}
	return "file:" + hex.EncodeToString(h.Sum(nil)), nil
}

// AppID returns the identity of a generated workload trace. The
// generators are deterministic in (name, seed, count), so the triple
// identifies the content; a change to a generator must be treated as a
// format change (bump the result format version) or the cache will
// serve results of the old generator.
func AppID(name string, seed uint64, count uint64) string {
	return fmt.Sprintf("app:%s:%d:%d", name, seed, count)
}

// TraceID digests an in-memory trace's accesses (address and kind):
// the exact content identity, immune to generator drift. Costs one
// pass over the trace — cheap next to materialization.
func TraceID(tr trace.Trace) string {
	h := sha256.New()
	var rec [9]byte
	for _, a := range tr {
		binary.LittleEndian.PutUint64(rec[:8], a.Addr)
		rec[8] = byte(a.Kind)
		h.Write(rec[:])
	}
	return "trace:" + hex.EncodeToString(h.Sum(nil))
}

// Key derives the identity of a replayed stream — the hex SHA-256 over
// the source identity and every parameter that shapes the stream's
// bytes — for ResultKey to fold in. shardLog is the ingest shard level
// (partitioning never changes results, so callers pass 0).
func Key(sourceID string, blockSize, shardLog int, kinds bool) string {
	h := sha256.New()
	io.WriteString(h, formatVersion)
	h.Write([]byte{0})
	io.WriteString(h, sourceID)
	h.Write([]byte{0})
	io.WriteString(h, strconv.Itoa(blockSize))
	h.Write([]byte{0})
	io.WriteString(h, strconv.Itoa(shardLog))
	h.Write([]byte{0})
	if kinds {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func validKey(key string) error {
	if len(key) != sha256.Size*2 {
		return fmt.Errorf("store: bad key %q", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: bad key %q", key)
		}
	}
	return nil
}

// quarantine renames a corrupt entry aside so the next lookup misses
// instead of re-reading it; gc reclaims the space.
func (s *Store) quarantine(path string) {
	if os.Rename(path, path+quarantineSuffix) != nil {
		os.Remove(path)
	}
	s.quarantines.Add(1)
}

// fileKind classifies a directory entry by name.
type fileKind int

const (
	otherFile fileKind = iota
	liveFile           // a result entry
	deadFile           // quarantined, or a stream entry of an earlier build
	tempFile           // an in-flight or abandoned publish
)

func classify(name string) fileKind {
	switch {
	case strings.HasPrefix(name, tmpPrefix):
		return tempFile
	case filepath.Ext(name) == resultSuffix:
		return liveFile
	case filepath.Ext(name) == quarantineSuffix, filepath.Ext(name) == legacyStreamSuffix:
		return deadFile
	}
	return otherFile
}

// liveEntry is one live entry file with its LRU recency.
type liveEntry struct {
	path  string
	size  int64
	mtime time.Time
}

// evictLRU removes the least-recently-used entries until total fits
// max, returning the files removed and the bytes they held.
func (s *Store) evictLRU(live []liveEntry, total, max int64) (removed int, reclaimed int64) {
	sort.Slice(live, func(i, j int) bool { return live[i].mtime.Before(live[j].mtime) })
	for _, e := range live {
		if total <= max {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			removed++
			reclaimed += e.size
			s.evictions.Add(1)
		}
	}
	return removed, reclaimed
}

// enforceCap evicts least-recently-used entries until the live total
// fits the cap. The just-published entry (keep is its file name) is
// never evicted (a single oversized entry stays until something newer
// displaces it).
func (s *Store) enforceCap(keep string) {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	var (
		live  []liveEntry
		total int64
	)
	for _, de := range dirents {
		if classify(de.Name()) != liveFile {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		total += info.Size()
		if de.Name() != keep {
			live = append(live, liveEntry{filepath.Join(s.dir, de.Name()), info.Size(), info.ModTime()})
		}
	}
	s.evictLRU(live, total, s.maxBytes)
}

// DiskStats scans the cache directory.
func (s *Store) DiskStats() (DiskStats, error) {
	var ds DiskStats
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return ds, fmt.Errorf("store: %w", err)
	}
	for _, de := range dirents {
		info, err := de.Info()
		if err != nil {
			continue
		}
		switch classify(de.Name()) {
		case liveFile:
			ds.Entries++
			ds.Bytes += info.Size()
		case deadFile:
			ds.Quarantined++
			ds.QuarantinedBytes += info.Size()
		case tempFile:
			ds.Temp++
		}
	}
	return ds, nil
}

// GC removes dead files — quarantined entries and the stream entries
// of earlier builds — and abandoned temp files (untouched for
// tmpReapAge; newer ones may be another process's in-flight publish),
// then enforces maxBytes (the store's cap when ≤ 0; no cap when both
// are 0) by LRU eviction. It returns the number of files removed and
// the bytes reclaimed.
func (s *Store) GC(maxBytes int64) (removed int, reclaimed int64, err error) {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	var (
		live  []liveEntry
		total int64
	)
	staleBefore := time.Now().Add(-tmpReapAge)
	for _, de := range dirents {
		info, ierr := de.Info()
		if ierr != nil {
			continue
		}
		p := filepath.Join(s.dir, de.Name())
		switch kind := classify(de.Name()); {
		case kind == liveFile:
			live = append(live, liveEntry{p, info.Size(), info.ModTime()})
			total += info.Size()
		case kind == deadFile, kind == tempFile && info.ModTime().Before(staleBefore):
			if os.Remove(p) == nil {
				removed++
				reclaimed += info.Size()
			}
		}
	}
	if maxBytes <= 0 {
		maxBytes = s.maxBytes
	}
	if maxBytes > 0 {
		n, b := s.evictLRU(live, total, maxBytes)
		removed += n
		reclaimed += b
	}
	return removed, reclaimed, nil
}

// Clear removes every entry, dead file and temp file.
func (s *Store) Clear() (removed int, reclaimed int64, err error) {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	for _, de := range dirents {
		if classify(de.Name()) == otherFile {
			continue
		}
		info, ierr := de.Info()
		if ierr != nil {
			continue
		}
		if os.Remove(filepath.Join(s.dir, de.Name())) == nil {
			removed++
			reclaimed += info.Size()
		}
	}
	return removed, reclaimed, nil
}
