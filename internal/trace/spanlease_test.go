package trace

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// leaseCase is one span pipeline of the lease tests: a producer (.din
// text or a generic reader), the kind channel on or off, and a budget.
type leaseCase struct {
	din   bool
	kinds bool
	mem   int64
}

func (c leaseCase) String() string {
	return fmt.Sprintf("din=%v kinds=%v mem=%d", c.din, c.kinds, c.mem)
}

// leaseCases covers both producers, kinds on and off, and the minimum
// (a budget of 1 clamps to it), 64 KiB and the default budgets.
func leaseCases() []leaseCase {
	var cs []leaseCase
	for _, din := range []bool{false, true} {
		for _, kinds := range []bool{false, true} {
			for _, mem := range []int64{1, 64 << 10, 0} {
				cs = append(cs, leaseCase{din, kinds, mem})
			}
		}
	}
	return cs
}

// leaseTrace at block size 1 forms a run for most accesses, so it cuts
// into hundreds of spans at the small budgets.
var leaseTrace = pipelineTrace(rand.New(rand.NewSource(20)), 300_000)

const leaseBlock = 1

func (c leaseCase) start(t *testing.T) *StreamPipeline {
	t.Helper()
	opts := SpanOptions{MemBytes: c.mem, Workers: 2, Kinds: c.kinds}
	var p *StreamPipeline
	var err error
	if c.din {
		p, err = StreamDinSpans(context.Background(), bytes.NewReader(dinText(leaseTrace)), leaseBlock, opts)
	} else {
		p, err = StreamSpans(context.Background(), leaseTrace.NewSliceReader(), leaseBlock, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// copySpan is a deep copy of s that shares nothing with the pipeline.
func copySpan(s *Span) *Span {
	c := &Span{Start: s.Start, Seq: s.Seq}
	c.BlockSize, c.Accesses = s.BlockSize, s.Accesses
	c.IDs = append([]uint64(nil), s.IDs...)
	c.Runs = append([]uint32(nil), s.Runs...)
	if s.Kinds != nil {
		c.Kinds = append([]KindRun{}, s.Kinds...)
	}
	return c
}

// TestSpanLeaseReleaseExact: a consumer that copies every span and
// releases it reproduces a non-releasing run's ConcatSpans bit for bit,
// and at the small budgets the pipeline really does hand released
// spans out again.
func TestSpanLeaseReleaseExact(t *testing.T) {
	for _, c := range leaseCases() {
		want := ConcatSpans(leaseBlock, c.kinds, collectSpans(t, c.start(t)))

		p := c.start(t)
		var copies []*Span
		seen := map[*Span]bool{}
		reused := false
		for s := range p.Spans() {
			reused = reused || seen[s]
			seen[s] = true
			copies = append(copies, copySpan(s))
			p.Release(s)
		}
		if err := p.Err(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		checkSpanInvariants(t, copies)
		sameBlockStream(t, c.String(), ConcatSpans(leaseBlock, c.kinds, copies), want)
		if c.mem != 0 && !reused {
			t.Errorf("%v: %d spans, none of them a released one", c, len(copies))
		}
		p.Release(copies[0]) // not the pipeline's: ignored
		p.Close()
		p.Release(copies[0]) // after Close: never blocks
	}
}

// TestSpanLeaseHeldIntact: spans the consumer holds without releasing
// are never reused, even while the spans around them are released and
// refilled, so every held span still matches its copy at the end.
func TestSpanLeaseHeldIntact(t *testing.T) {
	for _, c := range leaseCases() {
		p := c.start(t)
		var held, copies []*Span
		for s := range p.Spans() {
			if s.Seq%3 == 0 {
				held = append(held, s)
				copies = append(copies, copySpan(s))
			} else {
				p.Release(s)
			}
		}
		if err := p.Err(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		for i, s := range held {
			label := fmt.Sprintf("%v: held span %d", c, s.Seq)
			if s.Seq != copies[i].Seq || s.Start != copies[i].Start {
				t.Fatalf("%s: now Seq %d Start %d, want %d %d", label, s.Seq, s.Start, copies[i].Seq, copies[i].Start)
			}
			sameBlockStream(t, label, &s.BlockStream, &copies[i].BlockStream)
		}
	}
}

// TestSpanLeaseAllocs: once the free lists are warm, a releasing
// consumer costs the pipeline less than a tenth of one span's columns
// in fresh allocation per emitted span. The warm-up covers several
// decode chunks, because the decode runs ahead of the consumer by a
// varying number of spans.
func TestSpanLeaseAllocs(t *testing.T) {
	const warm = 200
	for _, c := range leaseCases() {
		if c.mem == 0 {
			continue // one default-budget span covers most of the trace
		}
		p := c.start(t)
		var before, after runtime.MemStats
		var spanBytes int64
		n := 0
		for s := range p.Spans() {
			n++
			if n == warm {
				runtime.ReadMemStats(&before)
			}
			spanBytes = int64(p.spanRuns) * bytesPerSpanRun(c.kinds)
			p.Release(s)
		}
		runtime.ReadMemStats(&after)
		if err := p.Err(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if n < 2*warm {
			t.Fatalf("%v: only %d spans, too few to measure", c, n)
		}
		per := int64(after.TotalAlloc-before.TotalAlloc) / int64(n-warm)
		t.Logf("%v: %d spans, %d B allocated per span, span columns %d B", c, n, per, spanBytes)
		if per*10 >= spanBytes {
			t.Errorf("%v: %d B allocated per span, want < %d (1/10 of a span's columns)", c, per, spanBytes/10)
		}
	}
}
