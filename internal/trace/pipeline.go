package trace

import (
	"bytes"
	"context"
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
// machine exactly: the boundary-merge step. Only a chunk's edges (its
// leading and trailing same-ID spans) can merge with a neighbour; the
// interior between them is final regardless of what neighbouring
// chunks hold, so the stitcher bulk-appends it and replays just the
// edges through the serial machine.
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
	// head is the length of the leading same-ID span; tail is the start
	// of the trailing same-ID span. Runs in [head, tail) — the interior
	// — are final regardless of what neighbouring chunks hold.
	head, tail int
}

// reserve empties c and sizes its columns for maxRuns runs, with the
// kind column when kinds is set: a chunk of n accesses (or n .din
// lines) forms at most n runs, so the columns are allocated at their
// full size instead of regrown. A fresh reservation gets 1/8 slack
// because a text chunk's line count varies with its line lengths, and
// a recycled chunk should fit the next one.
func (c *runChunk) reserve(kinds bool, maxRuns int) {
	*c = runChunk{BlockStream: BlockStream{IDs: c.IDs[:0], Runs: c.Runs[:0], Kinds: c.Kinds[:0]}}
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

// finish computes the chunk's edge spans and returns c.
func (c *runChunk) finish() *runChunk {
	n := len(c.IDs)
	if n == 0 {
		return c
	}
	head := 1
	for head < n && c.IDs[head] == c.IDs[0] {
		head++
	}
	tail := n - 1
	for tail > 0 && c.IDs[tail-1] == c.IDs[n-1] {
		tail--
	}
	if tail < head {
		// Single span: the whole chunk is edge.
		c.head, c.tail = n, n
		return c
	}
	c.head, c.tail = head, tail
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
