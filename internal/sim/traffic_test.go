package sim

import (
	"strings"
	"testing"
	"time"

	"repdir/internal/obs"
)

// TestRunTraffic drives a short run and checks the result carries live
// accounting: balanced suite counters, per-op message costs at the
// paper's floor, probes per delete, and a populated registry.
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
	// The suite also counted the seeding inserts.
	var total uint64
	for _, c := range res.Ops {
		total += c
	}
	if total+40 != res.Suite.Calls {
		t.Errorf("%d operations + 40 seeding inserts != suite calls %d", total, res.Suite.Calls)
	}
	// One client on a sequential quorum: each operation's calls are the
	// ones its members saw while it ran. A lookup is one read round; an
	// update builds on the version the suite remembers (write, commit);
	// a fresh key's insert reads first (read, write, commit).
	for op, want := range map[string]float64{"lookup": 2, "update": 4, "insert": 6} {
		if got := res.Messages[op]; got != want {
			t.Errorf("messages/op for %s = %v, want %v", op, got, want)
		}
	}
	// 150ms of a 10%-delete mix always deletes at least once.
	if res.Ops["delete"] == 0 {
		t.Error("workload never deleted")
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
	if !strings.Contains(out, "messages/op") || !strings.Contains(out, "neighbor probes per delete") {
		t.Errorf("report missing sections:\n%s", out)
	}
	if !strings.Contains(out, "omission delta") {
		t.Errorf("report missing latency section:\n%s", out)
	}
}
