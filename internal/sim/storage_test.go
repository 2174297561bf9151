package sim

import (
	"strings"
	"testing"
)

// TestRunStorage runs a scaled-down storage experiment end to end.
func TestRunStorage(t *testing.T) {
	res, err := RunStorage(StorageConfig{
		Dir:          t.TempDir(),
		Commits:      40,
		CrashCommits: 3,
		Entries:      60,
		PageSize:     16,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if logs := res.Crash.FreshBytes + res.Crash.WALBytes; res.Crash.TruncationPoints != int(logs)+2 {
		t.Errorf("crash pass tried %d truncation points over two logs of %d bytes",
			res.Crash.TruncationPoints, logs)
	}
	// The log opens with the three-record section of an empty
	// representative it was created with, and each commit logs three
	// records: the insert, the prepare, the commit.
	if res.Records != 3+3*40 {
		t.Errorf("clean curve log recovered %d records, want %d", res.Records, 3+3*40)
	}
	if len(res.Points) != 5 {
		t.Fatalf("curve has %d points, want 5", len(res.Points))
	}
	for i, p := range res.Points {
		if p.Salvaged >= res.Records {
			t.Errorf("point %d%%: salvaged %d of %d records despite the flip",
				p.Percent, p.Salvaged, res.Records)
		}
		if i > 0 && p.Salvaged < res.Points[i-1].Salvaged {
			t.Errorf("curve not monotone: %d%% salvaged %d < %d%% salvaged %d",
				p.Percent, p.Salvaged, res.Points[i-1].Percent, res.Points[i-1].Salvaged)
		}
	}
	if got := res.Rebuild.Stats.Copied; got != 60 {
		t.Errorf("rebuild copied %d entries, want 60", got)
	}
	if res.Rebuild.PerSecond <= 0 {
		t.Errorf("rebuild throughput = %v, want positive", res.Rebuild.PerSecond)
	}
	out := FormatStorage(res)
	for _, want := range []string{"crash-point harness", "salvage recovery", "rebuild from peers"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
