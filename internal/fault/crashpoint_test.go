package fault

import "testing"

// TestCrashPoints runs the crash-point harness: power loss at every
// byte boundary of a logged workload's fresh log and of the log its
// checkpoint compacted, plus a single-bit flip at every byte, must
// always recover to a state acknowledged in that log, or be refused
// inside the section it opens with.
func TestCrashPoints(t *testing.T) {
	report, err := RunCrashPoints(CrashConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	logs := int(report.FreshBytes + report.WALBytes)
	if report.TruncationPoints != logs+2 {
		t.Errorf("tried %d truncation points over two logs of %d bytes", report.TruncationPoints, logs)
	}
	if report.SectionBytes == 0 || report.SectionRefusals != int(report.SectionBytes) {
		t.Errorf("refused %d truncations inside %d bytes of sections, want every one", report.SectionRefusals, report.SectionBytes)
	}
	if report.BitFlipPoints != logs {
		t.Errorf("tried %d bit-flip points over %d bytes", report.BitFlipPoints, logs)
	}
	// The strict policy must have refused at least the mid-log flips,
	// and the salvage policy must have flagged repairs for them.
	if report.StrictRefusals == 0 {
		t.Error("no strict refusals: mid-log corruption went unnoticed")
	}
	if report.SalvagedOpens == 0 {
		t.Error("no salvaged opens: salvage policy never flagged repair")
	}
	t.Logf("crash-point report: %+v", report)
}

// TestCrashPointsShort covers a non-default configuration: as few
// commits as the checkpoint needs, leaving the compacted log its
// section alone.
func TestCrashPointsShort(t *testing.T) {
	report, err := RunCrashPoints(CrashConfig{Dir: t.TempDir(), Commits: 3})
	if err != nil {
		t.Fatal(err)
	}
	if report.Commits != 3 {
		t.Errorf("commits = %d, want 3", report.Commits)
	}
}
