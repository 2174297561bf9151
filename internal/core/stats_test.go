package core

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repdir/internal/obs"
)

func TestStatsCountCommitsAndFailures(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 71)
	s := ts.suite

	if err := s.Insert(ctx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Lookup(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	_ = s.Insert(ctx, "a", "dup") // semantic failure

	st := s.Stats()
	if st.Commits != 2 {
		t.Errorf("commits = %d, want 2 (insert + lookup)", st.Commits)
	}
	if st.Failures != 1 {
		t.Errorf("failures = %d, want 1 (duplicate insert)", st.Failures)
	}
}

func TestStatsCountReplicaLosses(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 72)
	s := ts.suite
	if err := s.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	ts.locals[0].Crash()
	// Hammer lookups until a quorum draw includes the dead replica and
	// triggers a retry with exclusion.
	for i := 0; i < 30; i++ {
		if _, _, err := s.Lookup(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.ReplicaLosses == 0 {
		t.Error("replica losses should be counted")
	}
	if st.Retries == 0 {
		t.Error("retries should be counted")
	}
	if st.Failures != 0 {
		t.Errorf("no operation should have failed, got %d", st.Failures)
	}
}

func TestStatsCountWaitDie(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 73)
	s := ts.suite
	// Heavy contention on one key forces wait-die events.
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = s.Insert(ctx, "hot", "v")
				_ = s.Delete(ctx, "hot")
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Commits == 0 {
		t.Error("commits should be counted under contention")
	}
	// Dies are probabilistic but essentially certain at this contention
	// level; retries accompany them.
	if st.Dies == 0 {
		t.Log("warning: no wait-die events observed (unusual but possible)")
	} else if st.Retries == 0 {
		t.Error("dies without retries")
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

// TestMetricsEndpoint serves what RegisterMetrics writes over HTTP and
// pins it: one family, repdir_suite_events_total, with one sample for
// each SuiteStats counter and no other, each reading the counter.
func TestMetricsEndpoint(t *testing.T) {
	ctx := context.Background()
	ts := newScriptedSuite(t, []string{"A", "B", "C"}, 2, 2)
	ts.script.set([]int{0, 1}, []int{0, 1})
	for _, op := range []func() error{
		func() error { return ts.suite.Insert(ctx, "k", "v") },
		func() error { _, _, err := ts.suite.Lookup(ctx, "k"); return err },
		func() error { return ts.suite.Delete(ctx, "k") },
	} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
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

	var families []string
	samples := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families = append(families, f[2]+" "+f[3])
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := expositionLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparseable exposition line: %q", line)
			continue
		}
		samples[m[1]+m[2]] = m[3]
	}
	if want := []string{"repdir_suite_events_total counter"}; !slices.Equal(families, want) {
		t.Errorf("families = %v, want %v", families, want)
	}
	st := ts.suite.Stats()
	want := map[string]uint64{
		"calls":                  st.Calls,
		"cancelled":              st.Cancelled,
		"commits":                st.Commits,
		"dies":                   st.Dies,
		"failures":               st.Failures,
		"replica_losses":         st.ReplicaLosses,
		"retries":                st.Retries,
		"stale_epoch_rejections": st.StaleEpochRejections,
		"witness_votes":          st.WitnessVotes,
	}
	if len(samples) != len(want) {
		t.Errorf("%d samples %v, want one for each of %d events", len(samples), samples, len(want))
	}
	for event, v := range want {
		name := `repdir_suite_events_total{event="` + event + `"}`
		if got, ok := samples[name]; !ok || got != strconv.FormatUint(v, 10) {
			t.Errorf("%s = %q, want %d", name, got, v)
		}
	}
	if st.Commits != 3 || st.Calls != 3 {
		t.Errorf("commits %d of %d calls, want 3 of 3", st.Commits, st.Calls)
	}
}
