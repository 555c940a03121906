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
// same ID and is below MaxUint32, else start a new run). appendRun
// applies w such steps at once, so replaying a chunk's locally formed
// runs through appendRun reproduces the global machine exactly — the
// boundary-merge step. Only a chunk's edges (its leading and trailing
// same-ID spans) can merge with a neighbour; the interior between them
// is final regardless of what neighbouring chunks hold, so the stitcher
// bulk-appends it and replays just the edges through the serial
// machine.
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

// appendRun appends a run of w consecutive accesses to block id with
// exactly the per-access semantics of append: the tail run grows until
// the uint32 counter saturates, then new runs are started greedily.
func (b *BlockStream) appendRun(id uint64, w uint32) {
	if w == 0 {
		return
	}
	b.Accesses += uint64(w)
	rem := uint64(w)
	if n := len(b.IDs); n > 0 && b.IDs[n-1] == id && b.Runs[n-1] < math.MaxUint32 {
		take := min(rem, uint64(math.MaxUint32-b.Runs[n-1]))
		b.Runs[n-1] += uint32(take)
		rem -= take
	}
	for rem > 0 {
		take := min(rem, math.MaxUint32)
		b.IDs = append(b.IDs, id)
		b.Runs = append(b.Runs, uint32(take))
		rem -= take
	}
}

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

// runChunk is one chunk's locally run-compressed columns.
type runChunk struct {
	ids      []uint64
	runs     []uint32
	kinds    []KindRun // kind channel parallel to runs; nil in kind-free mode
	accesses uint64
	// head is the length of the leading same-ID span; tail is the start
	// of the trailing same-ID span. Runs in [head, tail) — the interior
	// — are final regardless of what neighbouring chunks hold.
	head, tail int
}

// chunkCompressor builds a runChunk from a stream of (id, weight)
// pairs, applying the per-access run-formation semantics locally. In
// kind mode (kinds set at construction) every addition goes through
// addAccess or addKindRun, which keep the kind column parallel.
type chunkCompressor struct {
	c     *runChunk
	kinds bool
}

// compressInto starts a compressor filling dst, an empty chunk, first
// reserving its columns for maxRuns runs: a chunk of n accesses (or n
// .din lines) forms at most n runs unless a weight overflows uint32, so
// the columns are allocated at their full size instead of regrown. A
// fresh reservation gets 1/8 slack because a text chunk's line count
// varies with its line lengths, and a recycled chunk should fit the
// next one.
func compressInto(dst *runChunk, kinds bool, maxRuns int) chunkCompressor {
	if cap(dst.ids) < maxRuns {
		n := maxRuns + maxRuns/8
		dst.ids = make([]uint64, 0, n)
		dst.runs = make([]uint32, 0, n)
		if kinds {
			dst.kinds = make([]KindRun, 0, n)
		}
	}
	return chunkCompressor{c: dst, kinds: kinds}
}

// add appends one access in kind-free mode.
func (cc *chunkCompressor) add(id uint64) {
	c := cc.c
	c.accesses++
	if n := len(c.ids); n > 0 && c.ids[n-1] == id && c.runs[n-1] < math.MaxUint32 {
		c.runs[n-1]++
		return
	}
	c.ids = append(c.ids, id)
	c.runs = append(c.runs, 1)
}

// addAccess is add for one access in kind mode.
func (cc *chunkCompressor) addAccess(id uint64, k Kind) {
	cc.c.accesses++
	if n := len(cc.c.ids); n > 0 && cc.c.ids[n-1] == id && cc.c.runs[n-1] < math.MaxUint32 {
		cc.c.runs[n-1]++
		cc.c.kinds[n-1].addSpan(k, 1)
		return
	}
	cc.c.ids = append(cc.c.ids, id)
	cc.c.runs = append(cc.c.runs, 1)
	cc.c.kinds = append(cc.c.kinds, kindRunOf(k))
}

// addKindRun appends a pre-weighted kind run (kr.Total() == w),
// splitting the record at the uint32 counter boundary exactly where
// the weight splits.
func (cc *chunkCompressor) addKindRun(id uint64, w uint32, kr KindRun) {
	if w == 0 {
		return
	}
	cc.c.accesses += uint64(w)
	if n := len(cc.c.ids); n > 0 && cc.c.ids[n-1] == id && cc.c.runs[n-1] < math.MaxUint32 {
		space := math.MaxUint32 - cc.c.runs[n-1]
		if w <= space {
			cc.c.runs[n-1] += w
			cc.c.kinds[n-1] = mergeKind(cc.c.kinds[n-1], kr)
			return
		}
		var front KindRun
		front, kr = splitKindRun(kr, space)
		cc.c.runs[n-1] = math.MaxUint32
		cc.c.kinds[n-1] = mergeKind(cc.c.kinds[n-1], front)
		w -= space
	}
	cc.c.ids = append(cc.c.ids, id)
	cc.c.runs = append(cc.c.runs, w)
	cc.c.kinds = append(cc.c.kinds, kr)
}

// finish computes the chunk's edge spans.
func (cc *chunkCompressor) finish() *runChunk {
	c := cc.c
	n := len(c.ids)
	if n == 0 {
		return c
	}
	head := 1
	for head < n && c.ids[head] == c.ids[0] {
		head++
	}
	tail := n - 1
	for tail > 0 && c.ids[tail-1] == c.ids[n-1] {
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
// into dst, an empty chunk the worker supplies, and returns it.
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
// parseDinLine — feeding block IDs straight into a chunk compressor
// filling dst. Semantics, including error line numbers, match
// NewDinReader.
func parseDinChunk(dst *runChunk, b []byte, startLine, lines int, off uint, kinds bool) (*runChunk, error) {
	cc := compressInto(dst, kinds, lines+1)
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
			cc.addAccess(a.Addr>>off, a.Kind)
		} else {
			cc.add(a.Addr >> off)
		}
	}
	return cc.finish(), nil
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

// blockShift returns log2 of a validated block size.
func blockShift(blockSize int) uint {
	off := uint(0)
	for 1<<off < blockSize {
		off++
	}
	return off
}
