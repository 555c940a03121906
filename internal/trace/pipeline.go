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
// Run formation is a state machine whose only mutable state is the open
// run (openRun, BlockStream.step: grow it while the ID repeats and its
// counter is below MaxUint32, else close it and open a new run). A
// chunk runs that same machine over its own accesses, holding its open
// run in locals (appendDin for .din text, appendAccesses for a reader
// batch), and a step of weight w applies w accesses at once, so
// replaying a chunk's locally formed runs through step reproduces the
// global machine exactly: the boundary-merge step. Only a chunk's head
// (its leading same-ID span) can merge with the stream so far, whose
// open run it may extend; every run after the head is final regardless
// of what neighbouring chunks hold, and the chunk's last run becomes
// the stream's open run (the next chunk's head replays onto it). So the
// stitcher steps just the head onto its open run and copies every run
// after it but the last straight from the chunk's columns into spans.
// With the kind channel the head replays from its recorded kind order
// (one step per segment), since a saturating merge cuts it at an access
// its KindRun summaries cannot locate.
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
	// kindTotals are the chunk's per-kind access totals, zero without
	// the kind channel.
	kindTotals [3]uint64
}

// reserve empties c and sizes its columns for need runs, with the kind
// column when kinds is set, so the producer's runs close into capacity
// set aside instead of regrowing it. A fresh reservation gets 1/8
// slack, up to limit runs — the most any chunk of the producer forms —
// because a text chunk's line count varies with its line lengths and a
// recycled chunk should fit the next one.
func (c *runChunk) reserve(kinds bool, need, limit int) {
	*c = runChunk{BlockStream: BlockStream{IDs: c.IDs[:0], Runs: c.Runs[:0], Kinds: c.Kinds[:0]}, headKinds: c.headKinds[:0]}
	if cap(c.IDs) < need {
		n := max(need, min(need+need/8, limit))
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

// noteHead appends n accesses of kind k to headKinds.
func (c *runChunk) noteHead(k Kind, n uint32) {
	if s := len(c.headKinds) - 1; s >= 0 && c.headKinds[s].k == k && c.headKinds[s].n <= math.MaxUint32-n {
		c.headKinds[s].n += n
	} else {
		c.headKinds = append(c.headKinds, kindSpan{k, n})
	}
	c.headAcc += uint64(n)
}

// appendAccesses is BlockStream.appendAccesses, counting the batch's
// kinds and recording the head span's: while every access so far is in
// the head, the batch's leading accesses of the head's block are noted
// first.
func (c *runChunk) appendAccesses(batch []Access, off uint) error {
	if c.Kinds != nil && len(batch) > 0 {
		head := c.headAcc == c.Accesses
		hid := batch[0].Addr >> off
		if len(c.IDs) > 0 {
			hid = c.IDs[0]
		}
		var kw, n uint64
		for _, a := range batch {
			if !a.Kind.Valid() {
				break // the shared loop fails the batch here
			}
			if head = head && a.Addr>>off == hid; head {
				c.noteHead(a.Kind, 1)
			}
			kw += kindWords[a.Kind].rf
			n++
		}
		c.countKinds(kw, n)
	}
	return c.BlockStream.appendAccesses(batch, off)
}

// countKinds adds n accesses to the chunk's kind totals, kw their loads
// and fetches packed as in openRun.rf.
func (c *runChunk) countKinds(kw, n uint64) {
	rd, fe := kw&math.MaxUint32, kw>>32
	c.kindTotals[DataRead] += rd
	c.kindTotals[DataWrite] += n - rd - fe
	c.kindTotals[IFetch] += fe
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
// line boundaries, so b holds at most lines+1 of them) into dst. The
// runs it reserves are bounded by b's capacity: a line forms a run only
// if it holds a label, a separator and a digit, so a chunk of text
// forms at most one run per 4 bytes, newline included.
func parseDinChunk(dst *runChunk, b []byte, startLine, lines int, off uint, kinds bool) (*runChunk, error) {
	dst.reserve(kinds, min(lines+1, dinMaxRuns(len(b))), dinMaxRuns(cap(b)))
	if err := dst.appendDin(b, startLine, off, kinds); err != nil {
		return nil, err
	}
	return dst.finish(), nil
}

// dinMaxRuns is the most runs n bytes of .din text can form: the
// shortest line that decodes is "0 0", and every line but the last
// ends in a newline.
func dinMaxRuns(n int) int { return (n + 1) / 4 }

// appendDin is the .din kernel: it parses whole lines from b, the first
// numbered line, through the same line kernel as DinReader —
// dinCanonical, falling back to parseDinLine — and forms runs from
// their block IDs with the open run held in locals, continuing c's tail
// run; a run reaches the columns only when it closes. Semantics,
// including error line numbers, match NewDinReader.
func (c *runChunk) appendDin(b []byte, line int, off uint, kinds bool) error {
	if kinds {
		return dinLines[[1]byte](c, b, line, off)
	}
	return dinLines[[0]byte](c, b, line, off)
}

// kindChannel selects the kind channel of a per-access run-formation
// loop at compile time: [1]byte carries it, [0]byte does not. Go
// compiles one copy of such a loop per array length, so the kind-free
// copy folds every kind branch away and carries no kind state across
// its calls.
type kindChannel interface{ [0]byte | [1]byte }

// dinLines is appendDin's loop. It keeps little state across its call
// to dinCanonical: a line is numbered only if it fails.
func dinLines[K kindChannel](c *runChunk, b []byte, line int, off uint) error {
	var k K
	kinds := len(k) == 1
	text := b
	r := c.reopen()
	// The head's kinds are noted while every access so far is in it.
	head := kinds && c.headAcc == c.Accesses
	// Accesses, and loads and fetches packed as in openRun.rf, are
	// counted as runs close; the reopened run's were counted before.
	acc, kw := -uint64(r.weight()), -r.rf
	for len(b) > 0 {
		a, n := dinCanonical(b)
		if n > 0 {
			b = b[n:]
		} else {
			at := len(text) - len(b)
			var ln []byte
			ln, b, _ = bytes.Cut(b, []byte{'\n'})
			var blank bool
			var err error
			if a, blank, err = parseDinLine(ln, 0); err != nil {
				_, _, err = parseDinLine(ln, line+bytes.Count(text[:at], []byte{'\n'}))
				return err
			}
			if blank {
				continue
			}
		}
		id := a.Addr >> off
		if head {
			if head = r.wf == 0 || r.id == id; head {
				c.noteHead(a.Kind, 1)
			}
		}
		if r.fits(id, 1) {
			r = r.grow(id, a.Kind, 1, kinds)
		} else {
			c.close(r, kinds)
			acc, kw = acc+uint64(r.weight()), kw+r.rf
			r = openRun{}.grow(id, a.Kind, 1, kinds)
		}
	}
	if r.wf != 0 {
		c.close(r, kinds)
	}
	acc, kw = acc+uint64(r.weight()), kw+r.rf
	c.Accesses += acc
	if kinds {
		c.countKinds(kw, acc)
	}
	return nil
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
