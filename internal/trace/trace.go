// Package trace provides the memory-address trace substrate the
// simulators consume: the access record type, streaming reader/writer
// interfaces, an in-memory trace, the Dinero ".din" text format, and a
// compact delta-encoded binary format in the spirit of compressed-trace
// simulation work (Li et al., ICS'04, the paper's reference [16]).
//
// On top of the raw formats sits the decode-once stream frontend the
// design-space layers ride: a trace is decoded exactly once into a
// run-compressed BlockStream at the finest block size a run needs,
// every coarser block size is fold-derived from it in O(runs)
// (FoldBlockStream, FoldLadder), and each rung can be partitioned into
// independent per-tree substreams (ShardBlockStream) for the parallel
// passes — decode once → fold → shard, each stage bit-identical to
// re-decoding the trace at that stage's parameters.
//
// There is one decoder for file and generator traces: StreamSpans
// (StreamFileSpans for files) runs a chunk-parallel decode and
// emits the run-compressed stream as a bounded, backpressured pipeline
// of spans whose concatenation is bit-identical to the materialized
// BlockStream (FuzzSpanEquivalence), with decode overlapped with the
// consumer and the pipeline's span, chunk and free-list geometry sized
// from SpanOptions.MemBytes (a working-set budget: spans are leased, and
// only those the consumer hands back with StreamPipeline.Release are
// reused).
// The incremental LadderFolder derives every coarser ladder rung from
// the spans as they arrive, and ShardBlockStreamInto splits each span
// into a reused shard partition, so streamed and sharded replays both
// run in bounded memory on traces larger than RAM. Materializing is
// draining the spans (IngestFileShards does exactly that before
// partitioning); MaterializeBlockStream remains the serial in-process
// form. Each machine exists once: every run is formed by
// BlockStream.step's open-run machine (the serial materializers, every
// decode chunk and the span stitcher run it), and every fold by
// foldStage (FoldBlockStream and LadderFolder).
//
// The frontend is built to fail loudly rather than silently: decode
// errors are typed and position-carrying (CorruptError,
// TruncatedError, both matching the ErrCorrupt sentinel — see
// errors.go), and the pipeline honours context cancellation at chunk
// granularity and contains worker panics as *pool.PanicError. The
// faultreader subpackage injects deterministic I/O faults for testing
// these paths.
//
// The DEW paper drives its simulators with SimpleScalar-generated traces
// of byte-addressable memory requests (Table 2). This package plays that
// role; package workload generates the trace contents.
package trace

import (
	"errors"
	"fmt"
	"io"
)

// Kind classifies a memory request. The numeric values match the label
// column of the Dinero .din trace format.
type Kind uint8

const (
	// DataRead is a data load (din label 0).
	DataRead Kind = 0
	// DataWrite is a data store (din label 1).
	DataWrite Kind = 1
	// IFetch is an instruction fetch (din label 2).
	IFetch Kind = 2
)

// String returns a short human-readable name ("read", "write", "ifetch").
func (k Kind) String() string {
	switch k {
	case DataRead:
		return "read"
	case DataWrite:
		return "write"
	case IFetch:
		return "ifetch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is one of the three defined kinds.
func (k Kind) Valid() bool { return k <= IFetch }

// Access is a single memory request: a byte address plus its kind.
type Access struct {
	// Addr is the byte address requested.
	Addr uint64
	// Kind is the request type.
	Kind Kind
}

// Reader streams accesses. Next returns io.EOF after the final access.
type Reader interface {
	Next() (Access, error)
}

// Writer consumes accesses, e.g. to encode them to a file.
type Writer interface {
	WriteAccess(Access) error
}

// Trace is an in-memory sequence of accesses. It is the simplest Reader
// source and what the workload generators produce.
type Trace []Access

// NewSliceReader returns a Reader over t.
func (t Trace) NewSliceReader() *SliceReader { return &SliceReader{trace: t} }

// SliceReader reads an in-memory Trace.
type SliceReader struct {
	trace Trace
	pos   int
}

// Next implements Reader.
func (r *SliceReader) Next() (Access, error) {
	if r.pos >= len(r.trace) {
		return Access{}, io.EOF
	}
	a := r.trace[r.pos]
	r.pos++
	return a, nil
}

// ReadBatch implements BatchReader with a bulk copy from the backing
// slice.
func (r *SliceReader) ReadBatch(dst []Access) (int, error) {
	if r.pos >= len(r.trace) {
		return 0, io.EOF
	}
	n := copy(dst, r.trace[r.pos:])
	r.pos += n
	return n, nil
}

// ReadAll drains a Reader into a Trace. It fails on any error other than
// io.EOF. Reads go through the batched path, so decoding a large trace
// file pays one interface call per DefaultBatchSize accesses.
func ReadAll(r Reader) (Trace, error) {
	var t Trace
	err := Drain(r, func(batch []Access) {
		t = append(t, batch...)
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Copy streams every access from r to w and returns the number copied.
func Copy(w Writer, r Reader) (uint64, error) {
	var n uint64
	for {
		a, err := r.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := w.WriteAccess(a); err != nil {
			return n, err
		}
		n++
	}
}

// FuncReader adapts a generator function to the Reader interface. The
// function should return io.EOF when the stream ends.
type FuncReader func() (Access, error)

// Next implements Reader.
func (f FuncReader) Next() (Access, error) { return f() }
