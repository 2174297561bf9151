package core

import (
	"context"
	"testing"
	"time"
)

// TestParallelQuorumCutsLatency: a parallel round sends its members'
// calls at once, so they overlap; a sequential one sends them one
// after another. Each call waits out a delay, so a parallel round that
// overlapped nothing would cost as much as a sequential one.
func TestParallelQuorumCutsLatency(t *testing.T) {
	ctx := context.Background()
	for _, parallel := range []bool{false, true} {
		// Full quorums maximize fan-out.
		ts := newRandomSuite(t, []string{"A", "B", "C"}, 3, 3, 1, WithParallelQuorum(parallel))
		for _, l := range ts.locals {
			l.SetLatency(4 * time.Millisecond)
		}
		if err := ts.suite.Insert(ctx, "k", "v"); err != nil {
			t.Fatal(err)
		}
		if err := ts.suite.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		ts.counts.peak.Store(0)
		for i := 0; i < 10; i++ {
			if _, _, err := ts.suite.Lookup(ctx, "k"); err != nil {
				t.Fatal(err)
			}
		}
		switch got := ts.counts.peak.Load(); {
		case parallel && got < 2:
			t.Errorf("parallel lookups: at most %d call in flight, want the legs to overlap", got)
		case !parallel && got != 1:
			t.Errorf("sequential lookups: %d calls in flight at once, want 1", got)
		}
	}
}
