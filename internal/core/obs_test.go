package core

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repdir/internal/obs"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// newObservedSuite is newScriptedSuite plus an attached observer.
func newObservedSuite(t *testing.T, names []string, r, w int) (*testSuite, *obs.Observer) {
	t.Helper()
	reps := make([]*rep.Rep, len(names))
	locals := make([]*transport.Local, len(names))
	dirs := make([]rep.Directory, len(names))
	for i, n := range names {
		reps[i] = rep.New(n)
		locals[i] = transport.NewLocal(reps[i])
		dirs[i] = locals[i]
	}
	cfg := quorum.NewUniform(dirs, r, w)
	script := &scriptSelector{cfg: cfg}
	o := obs.NewObserver(obs.ObserverConfig{})
	s, err := NewSuite(cfg, WithSelector(script), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return &testSuite{suite: s, reps: reps, locals: locals, script: script}, o
}

// spanNames flattens a trace's span names for containment checks.
func spanNames(snap obs.TraceSnapshot) []string {
	out := make([]string, len(snap.Spans))
	for i, sp := range snap.Spans {
		out[i] = sp.Name
	}
	return out
}

func hasSpanPrefix(names []string, prefix string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// TestObservedDeleteTrace drives a Delete through an instrumented suite
// and checks its trace shows the distinct stages of Figure 13: the read
// round (neighbor searches and the lookup), bound copying, coalescing,
// and the commit — plus a positive message count and populated
// histograms.
func TestObservedDeleteTrace(t *testing.T) {
	ctx := context.Background()
	ts, o := newObservedSuite(t, []string{"A", "B", "C"}, 2, 2)
	ts.script.set([]int{0, 1}, []int{0, 1})

	if err := ts.suite.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	// Delete at B and C; the insert did not reach C.
	ts.script.set([]int{0, 1}, []int{1, 2})
	if err := ts.suite.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}

	recent := o.Tracer().Recent()
	if len(recent) != 2 {
		t.Fatalf("recent traces = %d, want 2 (insert, delete)", len(recent))
	}
	del := recent[1]
	if del.Op != OpDelete {
		t.Fatalf("second trace op = %q", del.Op)
	}
	if del.Err != "" {
		t.Fatalf("delete trace error: %s", del.Err)
	}
	if del.Messages <= 0 {
		t.Errorf("delete trace messages = %d, want > 0", del.Messages)
	}
	names := spanNames(del)
	for _, prefix := range []string{
		"delete-read", "bound-copy", "coalesce", "2pc-commit",
	} {
		if !hasSpanPrefix(names, prefix) {
			t.Errorf("delete trace lacks a %q span; spans: %v", prefix, names)
		}
	}
	for _, sp := range del.Spans {
		if sp.End < sp.Start {
			t.Errorf("span %q left open in a finished trace", sp.Name)
		}
	}

	// The latency histograms and paper-metric counters saw the traffic.
	if s := o.OpLatency(OpDelete); s.Count != 1 {
		t.Errorf("delete latency count = %d, want 1", s.Count)
	}
	if s := o.PhaseLatency("commit"); s.Count == 0 {
		t.Error("no 2PC commit phases recorded")
	}
	if mpo := o.MessagesPerOp(OpDelete); mpo <= 0 {
		t.Errorf("messages/op = %v, want > 0", mpo)
	}
	if ppd := o.ProbesPerDelete(); ppd <= 0 {
		t.Errorf("probes/delete = %v, want > 0", ppd)
	}
}

// TestCancelledOpsAreCounted is the regression test for the accounting
// leak: an operation whose context was already done returned from
// runTxn without touching any counter, so it appeared in no column of
// SuiteStats. It must count as Cancelled, preserving
// Commits + Failures + Cancelled == Calls.
func TestCancelledOpsAreCounted(t *testing.T) {
	ts := newScriptedSuite(t, []string{"A", "B", "C"}, 2, 2)
	ts.script.set([]int{0, 1}, []int{0, 1})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ts.suite.Insert(ctx, "k", "v"); err == nil {
		t.Fatal("insert under a cancelled context succeeded")
	}
	st := ts.suite.Stats()
	if st.Cancelled != 1 {
		t.Errorf("cancelled = %d, want 1", st.Cancelled)
	}
	if st.Calls != 1 {
		t.Errorf("calls = %d, want 1", st.Calls)
	}
	if got := st.Commits + st.Failures + st.Cancelled; got != st.Calls {
		t.Errorf("accounting: commits %d + failures %d + cancelled %d != calls %d",
			st.Commits, st.Failures, st.Cancelled, st.Calls)
	}
}

// expositionLine matches one sample line of the Prometheus text format.
var expositionLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+\-]+|\+Inf|NaN)$`)

// TestMetricsEndpoint drives traffic through an observed suite, serves
// its registry over HTTP, and checks the exposition parses as
// Prometheus text and carries the suite counters, op histograms, and
// messages/op gauges.
func TestMetricsEndpoint(t *testing.T) {
	ctx := context.Background()
	ts, _ := newObservedSuite(t, []string{"A", "B", "C"}, 2, 2)
	ts.script.set([]int{0, 1}, []int{0, 1})

	if err := ts.suite.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ts.suite.Lookup(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if err := ts.suite.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	ts.suite.RegisterMetrics(reg)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Every non-comment line must parse as a sample.
	sc := bufio.NewScanner(strings.NewReader(text))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines++
		if !expositionLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
	if lines == 0 {
		t.Fatal("empty exposition")
	}

	for _, want := range []string{
		`repdir_suite_events_total{event="commits"} 3`,
		`repdir_op_latency_seconds_bucket{op="delete",le="+Inf"} 1`,
		`repdir_op_latency_seconds_count{op="lookup"} 1`,
		`repdir_txn_phase_latency_seconds_count{phase="commit"}`,
		`repdir_messages_per_op{op="delete"}`,
		`repdir_neighbor_probes_per_delete`,
		`# TYPE repdir_op_latency_seconds histogram`,
		`# TYPE repdir_suite_events_total counter`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestObservedOpsMatchStats cross-checks the observer's per-op counters
// against the suite's own accounting under a small mixed workload.
func TestObservedOpsMatchStats(t *testing.T) {
	ctx := context.Background()
	ts, o := newObservedSuite(t, []string{"A", "B", "C"}, 2, 2)
	ts.script.set([]int{0, 1, 2}, []int{0, 1, 2})

	for _, k := range []string{"a", "b", "c"} {
		if err := ts.suite.Insert(ctx, k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.suite.Update(ctx, "b", "v2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.suite.Scan(ctx, "", 0); err != nil {
		t.Fatal(err)
	}
	if err := ts.suite.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	// A failed operation is still counted (and labeled an error).
	if err := ts.suite.Insert(ctx, "b", "dup"); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if err := ts.suite.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	counts := o.OpCounts()
	if counts[OpInsert] != 4 || counts[OpUpdate] != 1 || counts[OpScan] != 1 || counts[OpDelete] != 1 {
		t.Errorf("op counts = %v", counts)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	st := ts.suite.Stats()
	if total != st.Calls {
		t.Errorf("observer total %d != suite calls %d", total, st.Calls)
	}
	if got := st.Commits + st.Failures + st.Cancelled; got != st.Calls {
		t.Errorf("accounting: %d+%d+%d != %d", st.Commits, st.Failures, st.Cancelled, st.Calls)
	}
	// Reads dominate writes in message cost here; just require every
	// completed op type to have sent at least one message per op.
	for _, op := range []string{OpInsert, OpUpdate, OpScan, OpDelete} {
		if mpo := o.MessagesPerOp(op); mpo < 1 {
			t.Errorf("messages/op for %s = %v, want >= 1", op, mpo)
		}
	}
}
