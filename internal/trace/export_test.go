package trace

import (
	"context"
	"io"
)

// Test-only API: hooks into the package's internals for its external
// tests, and the span pipeline entry points only tests drive.

// CanonicalDin is canonicalDin: n accesses rendered as DinWriter
// renders them, with random kinds and the locality of a real trace.
var CanonicalDin = canonicalDin

// NewDinChunkParser returns a function that parses text of the given
// line count as one .din chunk through the chunk kernel, at a block
// size of 2^off, reusing one chunk's columns from call to call.
func NewDinChunkParser(off uint, kinds bool) func(text []byte, lines int) error {
	dst := &runChunk{}
	return func(text []byte, lines int) error {
		_, err := parseDinChunk(dst, text, 1, lines, off, kinds)
		return err
	}
}

// StreamDinSpans starts a span pipeline over Dinero .din text, with the
// text decode itself chunk-parallel: the producer cuts the byte stream
// at line boundaries and workers parse and run-compress each chunk
// independently. Semantics (including error line numbers) match
// NewDinReader.
func StreamDinSpans(ctx context.Context, r io.Reader, blockSize int, opts SpanOptions) (*StreamPipeline, error) {
	p, st, err := newStreamPipeline(blockSize, opts)
	if err != nil {
		return nil, err
	}
	p.startDin(ctx, st, r, blockSize, opts.Kinds)
	return p, nil
}

// ConcatSpans materializes spans back into one stream. It is the test
// oracle: span-pipeline tests replay its result as the monolithic
// stream the spans must reproduce.
func ConcatSpans(blockSize int, kinds bool, spans []*Span) *BlockStream {
	bs := &BlockStream{BlockSize: blockSize}
	if kinds {
		bs.Kinds = []KindRun{}
	}
	for _, s := range spans {
		bs.appendSpan(&s.BlockStream)
	}
	return bs
}
