// Package span is the record format of the benchmark's traced run: one
// span per call the traced run makes into a layer of the simulator,
// kept in memory and handed to the harness as JSON when the run ends.
package span

import (
	"runtime/metrics"
	"sync"
	"time"
)

// Span is one timed call. Name is "<layer>.<operation>"; the layer is
// the simulator module called (trace, engine, refsim, core, explore,
// sweep, store) or cli for the tool-level work around them.
type Span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the traced run began.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Parent indexes the enclosing span; -1 marks the root.
	Parent int `json:"parent"`
	// Alloc is the bytes the process allocated during the span, or -1
	// when not measured. The counter is process-wide, so it is read only
	// around spans opened on the goroutine doing the work.
	Alloc int64 `json:"alloc"`
}

// Run is everything one traced run reports.
type Run struct {
	Spans []Span `json:"spans"`
	// Counts holds the run's counters by metric name.
	Counts map[string]float64 `json:"counts"`
	// Output is the tool output the run rendered from its results, for
	// the harness to check against the tool's own; empty when the run
	// renders none.
	Output string `json:"output,omitempty"`
}

// Recorder collects spans; it is safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []Span
	allocs []metrics.Sample
}

// NewRecorder starts the run's clock.
func NewRecorder() *Recorder {
	return &Recorder{
		t0:     time.Now(),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// Begin opens a span under parent and returns its index.
func (r *Recorder) Begin(name string, parent int, measureAlloc bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	alloc := int64(-1)
	if measureAlloc {
		alloc = r.allocated()
	}
	r.spans = append(r.spans, Span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Alloc: alloc})
	return len(r.spans) - 1
}

// End closes span id.
func (r *Recorder) End(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = now
	if s.Alloc >= 0 {
		s.Alloc = r.allocated() - s.Alloc
	}
}

// Derive records a span the run did not time itself but a layer
// reported, such as the simulation time a sweep cell measured: dur
// long, placed offset after its parent's start.
func (r *Recorder) Derive(name string, parent int, offset, dur time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.spans[parent].Start + int64(offset)
	r.spans = append(r.spans, Span{Name: name, Start: start, End: start + int64(dur), Parent: parent, Alloc: -1})
}

// Duration returns the length of the closed span id.
func (r *Recorder) Duration(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

func (r *Recorder) allocated() int64 {
	metrics.Read(r.allocs)
	return int64(r.allocs[0].Value.Uint64())
}
