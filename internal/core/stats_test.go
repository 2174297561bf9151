package core

import (
	"context"
	"sync"
	"testing"
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
