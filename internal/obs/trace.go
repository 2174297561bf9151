package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed step inside a trace, recorded as offsets from the
// trace's start so snapshots are self-contained.
type Span struct {
	// Name labels the step, e.g. "quorum-read k0042" or "2pc-prepare".
	Name string
	// Start and End are offsets from the trace's begin time. End is
	// negative while the span is open (a trace snapshotted mid-flight
	// would show it; finished traces never do).
	Start, End time.Duration
}

// Trace records the timed steps of one suite operation: quorum rounds,
// neighbor walks, per-member RPCs, 2PC phases, wait-die backoffs. A
// trace is created by Tracer.Start and published by Finish. All methods
// are safe on a nil receiver (they no-op), so instrumented code paths
// need no "is tracing on" conditionals, and safe for concurrent use (a
// parallel quorum fan-out spans from several goroutines).
type Trace struct {
	op     string
	begin  time.Time
	tracer *Tracer

	mu       sync.Mutex
	spans    []Span
	finished bool
}

// SpanHandle ends one span. The zero value is a no-op, which is what
// StartSpan on a nil trace returns.
type SpanHandle struct {
	t   *Trace
	idx int
}

// StartSpan opens a named span at the current time. Spans may overlap
// and nest freely; the snapshot keeps them in start order.
func (t *Trace) StartSpan(name string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: time.Since(t.begin), End: -1})
	return SpanHandle{t: t, idx: len(t.spans) - 1}
}

// End closes the span.
func (h SpanHandle) End() {
	if h.t == nil {
		return
	}
	h.t.mu.Lock()
	h.t.spans[h.idx].End = time.Since(h.t.begin)
	h.t.mu.Unlock()
}

// TraceSnapshot is a completed (or copied) trace.
type TraceSnapshot struct {
	// Op is the operation label the trace was started with.
	Op string
	// Begin is the wall-clock start; Duration the total elapsed time.
	Begin    time.Time
	Duration time.Duration
	// Messages is the number of representative messages the operation
	// sent (the paper's section 4 cost unit), as reported to Finish.
	Messages int
	// Err is the operation's final error text, empty on success.
	Err string
	// Spans are the recorded steps, in start order.
	Spans []Span
}

// Finish completes the trace, publishing it to the tracer's ring buffer.
// Finishing a trace twice is a no-op.
func (t *Trace) Finish(err error, messages int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	snap := TraceSnapshot{
		Op:       t.op,
		Begin:    t.begin,
		Duration: time.Since(t.begin),
		Messages: messages,
		Spans:    append([]Span(nil), t.spans...),
	}
	t.mu.Unlock()
	if err != nil {
		snap.Err = err.Error()
	}
	t.tracer.record(snap)
}

// traceRing is the number of recent completed traces a Tracer keeps.
const traceRing = 64

// Tracer hands out traces and retains a ring buffer of recently
// completed ones for inspection ("where did that slow Lookup spend its
// time?"). Safe for concurrent use; nil-receiver safe.
type Tracer struct {
	mu   sync.Mutex
	ring [traceRing]TraceSnapshot
	next int
	full bool

	total atomic.Uint64
}

// NewTracer builds a tracer.
func NewTracer() *Tracer { return new(Tracer) }

// Start begins a trace for the named operation. A nil tracer returns a
// nil trace, on which every method is a no-op.
func (t *Tracer) Start(op string) *Trace {
	if t == nil {
		return nil
	}
	return &Trace{op: op, begin: time.Now(), tracer: t}
}

// record files a completed trace.
func (t *Tracer) record(snap TraceSnapshot) {
	if t == nil {
		return
	}
	t.total.Add(1)
	t.mu.Lock()
	t.ring[t.next] = snap
	t.next++
	if t.next == len(t.ring) {
		t.next, t.full = 0, true
	}
	t.mu.Unlock()
}

// Recent returns the retained traces, oldest first.
func (t *Tracer) Recent() []TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []TraceSnapshot
	if t.full {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	return out
}

// Finished returns how many traces have completed.
func (t *Tracer) Finished() uint64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

// FormatTrace renders a snapshot as an indented text timeline.
func FormatTrace(s TraceSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %v, %d msgs", s.Op, s.Duration.Round(time.Microsecond), s.Messages)
	if s.Err != "" {
		fmt.Fprintf(&b, ", err=%s", s.Err)
	}
	b.WriteByte('\n')
	for _, sp := range s.Spans {
		end := "open"
		if sp.End >= 0 {
			end = fmt.Sprintf("+%v", (sp.End - sp.Start).Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "  %10v %-10s %s\n", sp.Start.Round(time.Microsecond), end, sp.Name)
	}
	return b.String()
}
