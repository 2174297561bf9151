package sim

import (
	"strings"
	"testing"
	"time"

	"repdir/internal/obs"
)

// TestRunTraffic drives a short instrumented run and checks the result
// carries live observability: balanced accounting, per-op message
// costs, a rendered Delete trace, and a populated registry.
func TestRunTraffic(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := RunTraffic(TrafficConfig{
		Entries:  40,
		Duration: 150 * time.Millisecond,
		Seed:     7,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.Suite.Calls == 0 {
		t.Fatal("no operations ran")
	}
	if got := res.Suite.Commits + res.Suite.Failures + res.Suite.Cancelled; got != res.Suite.Calls {
		t.Errorf("accounting: %d+%d+%d != %d",
			res.Suite.Commits, res.Suite.Failures, res.Suite.Cancelled, res.Suite.Calls)
	}
	var total uint64
	for _, c := range res.Ops {
		total += c
	}
	if total != res.Suite.Calls {
		t.Errorf("observer total %d != suite calls %d", total, res.Suite.Calls)
	}
	if res.Messages["lookup"] < 1 {
		t.Errorf("messages/op for lookup = %v, want >= 1", res.Messages["lookup"])
	}
	// 150ms of a 10%-delete mix always deletes at least once.
	if res.Ops["delete"] == 0 {
		t.Error("workload never deleted")
	}
	if res.DeleteTrace == "" {
		t.Error("no delete trace captured")
	} else {
		for _, span := range []string{"delete-read", "coalesce", "2pc-commit"} {
			if !strings.Contains(res.DeleteTrace, span) {
				t.Errorf("delete trace lacks %q:\n%s", span, res.DeleteTrace)
			}
		}
	}
	if res.ProbesPerDelete <= 0 {
		t.Errorf("probes/delete = %v, want > 0", res.ProbesPerDelete)
	}

	// Latency is captured per operation, measured both from the intended
	// arrival (response) and the actual start (service); response can
	// never be the smaller sum, because intended <= actual start.
	if res.Response.Count == 0 {
		t.Fatal("no response-time capture")
	}
	if res.Response.Count != res.Service.Count {
		t.Errorf("response count %d != service count %d", res.Response.Count, res.Service.Count)
	}
	if res.Response.Sum < res.Service.Sum {
		t.Errorf("response sum %v < service sum %v — latency measured from the wrong clock",
			res.Response.Sum, res.Service.Sum)
	}

	// The registry the caller passed in scrapes the run's families.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"repdir_rep_ops_total{member=\"rep0\",op=\"lookups\"}",
		"repdir_rep_call_latency_seconds_count{member=\"rep1\",op=\"lookup\"}",
		"repdir_suite_events_total{event=\"commits\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	out := FormatTraffic(res)
	if !strings.Contains(out, "messages/op") || !strings.Contains(out, "delete trace") {
		t.Errorf("report missing sections:\n%s", out)
	}
	if !strings.Contains(out, "omission delta") {
		t.Errorf("report missing latency section:\n%s", out)
	}
}
