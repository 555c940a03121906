package trace

import (
	"bytes"
	"context"
	"math"
)

// This file is the chunk front half of the span pipeline (span.go): the
// decode is cut into chunks, every chunk is run-compressed
// independently on a worker, and the span stitcher merges runs across
// chunk boundaries so the stitched stream is bit-identical — same IDs,
// same Runs, same uint32 run-overflow splits — to the serial
// MaterializeBlockStream. The raw trace (16 bytes per access) is never
// materialized; the only state is the run-compressed columns.
//
// # Exactness
//
// Run formation is a per-access state machine whose only mutable state
// is the tail run (BlockStream.append: grow the tail while it holds the
// same ID and is below MaxUint32, else start a new run). A chunk runs
// that same machine over its own accesses — its columns are a
// BlockStream, filled by append/appendKind (appendAccesses for a reader
// batch) — and appendRun applies w steps at once, so replaying a
// chunk's locally formed runs through appendRun reproduces the global
// machine exactly: the boundary-merge step. Only a chunk's head (its
// leading same-ID span) can merge with the stream so far, whose tail
// run it may extend; every run after the head is final regardless of
// what neighbouring chunks hold (a trailing span merges when the next
// chunk's head is replayed onto it), so the stitcher replays just the
// head through the serial machine and bulk-appends the rest. With the
// kind channel the head replays from its recorded kind order
// (appendKindSpan per segment), since a saturating merge cuts it at an
// access its KindRun summaries cannot locate.
//
// Sharding is not a decode concern: a sharded replay splits each
// stitched span with ShardBlockStreamInto as it arrives (shard.go).
const (
	// defaultChunkAcc is the largest number of accesses per pipeline
	// chunk: large enough that per-chunk stitching cost is negligible,
	// small enough that a handful of in-flight chunks fit in cache.
	defaultChunkAcc = 1 << 16
	// dinChunkBytes is the largest byte granularity of the parallel
	// .din text parser (chunks are cut at line boundaries).
	dinChunkBytes = 1 << 20
)

// appendSpan appends a span's columns (final runs, already cut at run
// boundaries) to b — the materializing side of span concatenation.
func (b *BlockStream) appendSpan(s *BlockStream) {
	b.IDs = append(b.IDs, s.IDs...)
	b.Runs = append(b.Runs, s.Runs...)
	if b.Kinds != nil {
		b.Kinds = append(b.Kinds, s.Kinds...)
	}
	b.Accesses += s.Accesses
}

// runChunk is one chunk's locally run-compressed columns. Its
// BlockStream carries no block size: a chunk's IDs are already shifted.
type runChunk struct {
	BlockStream
	// head is the length of the leading same-ID span, the only runs
	// that can merge with the previous chunk's tail run. The runs after
	// it are final regardless of what neighbouring chunks hold.
	head int
	// headKinds is, with the kind channel, the head span's accesses in
	// access order as (kind, count) segments, and headAcc the accesses
	// they cover. A KindRun summary does not keep the order of its
	// kinds, and a head span that merges into a tail run saturating
	// inside it is cut at an access the summary cannot locate.
	headKinds []kindSpan
	headAcc   uint64
}

// reserve empties c and sizes its columns for maxRuns runs, with the
// kind column when kinds is set: a chunk of n accesses (or n .din
// lines) forms at most n runs, so the columns are allocated at their
// full size instead of regrown. A fresh reservation gets 1/8 slack
// because a text chunk's line count varies with its line lengths, and
// a recycled chunk should fit the next one.
func (c *runChunk) reserve(kinds bool, maxRuns int) {
	*c = runChunk{BlockStream: BlockStream{IDs: c.IDs[:0], Runs: c.Runs[:0], Kinds: c.Kinds[:0]}, headKinds: c.headKinds[:0]}
	if cap(c.IDs) < maxRuns {
		n := maxRuns + maxRuns/8
		c.IDs = make([]uint64, 0, n)
		c.Runs = make([]uint32, 0, n)
		c.Kinds = nil
	}
	if !kinds {
		c.Kinds = nil
	} else if c.Kinds == nil {
		c.Kinds = make([]KindRun, 0, cap(c.IDs))
	}
}

// inHead reports whether an access of block id extends the head span:
// every access so far is in it, and id is its block (or the chunk is
// empty).
func (c *runChunk) inHead(id uint64) bool {
	return c.headAcc == c.Accesses && (len(c.IDs) == 0 || c.IDs[0] == id)
}

// noteHead appends n accesses of kind k to headKinds.
func (c *runChunk) noteHead(k Kind, n uint32) {
	if s := len(c.headKinds) - 1; s >= 0 && c.headKinds[s].k == k && c.headKinds[s].n <= math.MaxUint32-n {
		c.headKinds[s].n += n
	} else {
		c.headKinds = append(c.headKinds, kindSpan{k, n})
	}
	c.headAcc += uint64(n)
}

// appendKind is BlockStream.appendKind, recording the head span's
// kinds.
func (c *runChunk) appendKind(id uint64, k Kind) {
	if c.inHead(id) {
		c.noteHead(k, 1)
	}
	c.BlockStream.appendKind(id, k)
}

// appendAccesses is BlockStream.appendAccesses, recording the head
// span's kinds: the batch's leading accesses go one by one through
// appendKind, the rest through the shared loop.
func (c *runChunk) appendAccesses(batch []Access, off uint) error {
	if c.Kinds != nil {
		for len(batch) > 0 && batch[0].Kind.Valid() && c.inHead(batch[0].Addr>>off) {
			c.appendKind(batch[0].Addr>>off, batch[0].Kind)
			batch = batch[1:]
		}
	}
	return c.BlockStream.appendAccesses(batch, off)
}

// finish computes the chunk's head span and returns c.
func (c *runChunk) finish() *runChunk {
	n := len(c.IDs)
	if n == 0 {
		return c
	}
	head := 1
	for head < n && c.IDs[head] == c.IDs[0] {
		head++
	}
	c.head = head
	return c
}

// chunkJob is one chunk's parallel work unit: run compresses the chunk
// into dst, a chunk the worker supplies, and returns it.
type chunkJob struct {
	seq int
	run func(dst *runChunk) (*runChunk, error)
}

type chunkResult struct {
	seq   int
	chunk *runChunk
	err   error
}

// parseDinChunk parses whole .din lines from b (the producer cuts at
// line boundaries, so b holds at most lines+1 of them) through the
// same line kernel as DinReader — dinCanonical, falling back to
// parseDinLine — appending block IDs straight to dst's columns.
// Semantics, including error line numbers, match NewDinReader.
func parseDinChunk(dst *runChunk, b []byte, startLine, lines int, off uint, kinds bool) (*runChunk, error) {
	dst.reserve(kinds, lines+1)
	line := startLine - 1
	for len(b) > 0 {
		line++
		a, n := dinCanonical(b)
		if n > 0 {
			b = b[n:]
		} else {
			var ln []byte
			ln, b, _ = bytes.Cut(b, []byte{'\n'})
			var blank bool
			var err error
			if a, blank, err = parseDinLine(ln, line); err != nil {
				return nil, err
			}
			if blank {
				continue
			}
		}
		if kinds {
			dst.appendKind(a.Addr>>off, a.Kind)
		} else {
			dst.append(a.Addr >> off)
		}
	}
	return dst.finish(), nil
}

// IngestFileShards decodes a trace file (transparently decompressing
// ".gz"; .din text through the chunk-parallel parser) through the span
// pipeline, drains the spans into one stream and partitions it with
// ShardBlockStream: the materialized parent stream plus its 2^log shard
// partition, bit-identical to ShardBlockStream over
// MaterializeBlockStream. workers ≤ 0 means GOMAXPROCS. This holds the
// whole stream and partition resident; a sharded replay should instead
// split each span as it arrives (ShardBlockStreamInto), in the
// pipeline's bounded memory.
func IngestFileShards(ctx context.Context, name string, blockSize, log, workers int) (*ShardStream, error) {
	return ingestFileShards(ctx, name, blockSize, log, workers, false)
}

// IngestFileShardsWithKinds is IngestFileShards with the
// kind-preserving channel.
func IngestFileShardsWithKinds(ctx context.Context, name string, blockSize, log, workers int) (*ShardStream, error) {
	return ingestFileShards(ctx, name, blockSize, log, workers, true)
}

func ingestFileShards(ctx context.Context, name string, blockSize, log, workers int, kinds bool) (*ShardStream, error) {
	if err := checkShardLog(log); err != nil {
		return nil, err
	}
	p, err := StreamFileSpans(ctx, name, blockSize, SpanOptions{Workers: workers, Kinds: kinds})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	bs := &BlockStream{BlockSize: blockSize}
	if kinds {
		bs.Kinds = []KindRun{}
	}
	for s := range p.Spans() {
		bs.appendSpan(&s.BlockStream)
		p.Release(s)
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	return ShardBlockStream(bs, log)
}
