package obs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceSpans checks span recording and snapshot publication.
func TestTraceSpans(t *testing.T) {
	tr := NewTracer()
	trace := tr.Start("delete")
	a := trace.StartSpan("quorum-read k1")
	a.End()
	b := trace.StartSpan("2pc-prepare")
	b.End()
	trace.Finish(nil, 7)

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("recent = %d traces", len(recent))
	}
	snap := recent[0]
	if snap.Op != "delete" || snap.Messages != 7 || snap.Err != "" {
		t.Errorf("snapshot = %+v", snap)
	}
	if len(snap.Spans) != 2 || snap.Spans[0].Name != "quorum-read k1" || snap.Spans[1].Name != "2pc-prepare" {
		t.Fatalf("spans = %+v", snap.Spans)
	}
	for _, sp := range snap.Spans {
		if sp.End < sp.Start {
			t.Errorf("span %s not closed: %+v", sp.Name, sp)
		}
	}
	if tr.Finished() != 1 {
		t.Errorf("finished = %d", tr.Finished())
	}
	// Double finish is a no-op.
	trace.Finish(errors.New("again"), 99)
	if tr.Finished() != 1 {
		t.Error("double finish recorded twice")
	}
	if !strings.Contains(FormatTrace(snap), "2pc-prepare") {
		t.Error("FormatTrace lost a span")
	}
}

// TestTraceConcurrentSpans opens spans from several goroutines, as a
// parallel quorum fan-out does; -race checks the locking.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	trace := tr.Start("lookup")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				trace.StartSpan("rpc").End()
			}
		}()
	}
	wg.Wait()
	trace.Finish(nil, 0)
	if got := len(tr.Recent()[0].Spans); got != 400 {
		t.Errorf("spans = %d, want 400", got)
	}
}

// TestTracerRing checks the ring buffer wraps, keeping the newest
// traces in oldest-first order.
func TestTracerRing(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < traceRing+2; i++ {
		trace := tr.Start(fmt.Sprint(i))
		trace.Finish(nil, i)
	}
	recent := tr.Recent()
	if len(recent) != traceRing {
		t.Fatalf("recent = %d", len(recent))
	}
	if first, last := recent[0].Op, recent[traceRing-1].Op; first != "2" || last != fmt.Sprint(traceRing+1) {
		t.Errorf("ring keeps %s..%s, want 2..%d", first, last, traceRing+1)
	}
}

// TestNilSafety: every entry point must no-op on nil receivers so
// uninstrumented suites need no conditionals.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	trace := tr.Start("op")
	if trace != nil {
		t.Fatal("nil tracer produced a trace")
	}
	sp := trace.StartSpan("x") // nil trace
	sp.End()
	trace.Finish(nil, 1)
	if tr.Recent() != nil || tr.Finished() != 0 {
		t.Error("nil tracer returned data")
	}
	var o *Observer
	o.OpDone("lookup", time.Second, 1, nil)
	o.PhaseDone("prepare", time.Second)
	o.DeleteObserved(1, 2, 3, 4)
	if o.StartTrace("x") != nil || o.Tracer() != nil {
		t.Error("nil observer produced a trace")
	}
	if o.MessagesPerOp("lookup") != 0 || o.ProbesPerDelete() != 0 {
		t.Error("nil observer returned data")
	}
	if s := o.OpLatency("lookup"); s.Count != 0 {
		t.Error("nil observer returned a histogram")
	}
}

// TestObserverCounts checks the derived per-op gauges.
func TestObserverCounts(t *testing.T) {
	o := NewObserver(ObserverConfig{})
	o.OpDone("lookup", time.Millisecond, 4, nil)
	o.OpDone("lookup", time.Millisecond, 6, errors.New("x"))
	o.DeleteObserved(3, 2, 1, 0)
	o.DeleteObserved(5, 2, 0, 1)
	if got := o.MessagesPerOp("lookup"); got != 5 {
		t.Errorf("messages/op = %v, want 5", got)
	}
	if got := o.ProbesPerDelete(); got != 4 {
		t.Errorf("probes/delete = %v, want 4", got)
	}
	if got := o.OpCounts()["lookup"]; got != 2 {
		t.Errorf("lookup ops = %d", got)
	}
	if got := o.OpLatency("lookup"); got.Count != 2 {
		t.Errorf("lookup histogram count = %d", got.Count)
	}
}
