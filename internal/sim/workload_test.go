package sim

import (
	"strings"
	"testing"
	"time"
)

// TestRunWorkload drives a scaled-down run of the open-loop experiment
// end to end: every mix completes, verdicts are checked, the session
// mix serves local reads, and the report renders every mix.
func TestRunWorkload(t *testing.T) {
	report, err := RunWorkload(WorkloadConfig{
		Keys:     2000,
		Shards:   2,
		Rate:     1000,
		Duration: 300 * time.Millisecond,
		Workers:  8,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Mixes) != 4 {
		t.Fatalf("got %d mixes, want 4", len(report.Mixes))
	}
	var sessions bool
	for _, m := range report.Mixes {
		if m.Offered == 0 || m.Completed == 0 {
			t.Errorf("mix %s ran nothing (offered %d, completed %d)",
				m.Config.Mix.Name, m.Offered, m.Completed)
		}
		if m.Errors != 0 {
			t.Errorf("mix %s: %d errors", m.Config.Mix.Name, m.Errors)
		}
		if !m.Verdict.Checked {
			t.Errorf("mix %s: verdict unchecked (default SLO not applied)", m.Config.Mix.Name)
		}
		if m.Config.Sessions > 0 {
			sessions = true
			if m.LocalReads == 0 {
				t.Error("session mix served no local reads")
			}
		}
	}
	if !sessions {
		t.Error("no session mix in the standard set")
	}

	out := FormatWorkload(report)
	for _, want := range []string{
		"read-heavy ", "read-heavy-sessions", "update-heavy", "scan-heavy",
		"p999", "omission delta", "sessions:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
