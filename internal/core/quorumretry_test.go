package core

import (
	"context"
	"testing"
)

// TestRetryExcludesAllLostMembers: when a quorum round loses several
// members at once (routine with parallel fan-out), every unavailable
// member must be noted and excluded from the next attempt together —
// one retry, not one retry per lost member. The exclusion lasts as long
// as the operation that lost the members: the next operation draws them
// again and pays for them anew.
func TestRetryExcludesAllLostMembers(t *testing.T) {
	ctx := context.Background()
	ts := newScriptedSuite(t, []string{"A", "B", "C", "D", "E"}, 3, 3)
	suite, err := NewSuite(ts.suite.cfg,
		WithSelector(ts.script), WithParallelQuorum(true))
	if err != nil {
		t.Fatal(err)
	}
	ts.script.set([]int{0, 1, 2}, []int{0, 1, 2})
	ts.locals[1].Partition()
	ts.locals[2].Partition()

	if err := suite.Insert(ctx, "k", "v"); err != nil {
		t.Fatalf("insert with two lost members = %v, want success via retry", err)
	}
	st := suite.Stats()
	if st.Retries != 1 {
		t.Errorf("retries = %d, want 1 (both lost members excluded in one round)", st.Retries)
	}
	if st.ReplicaLosses != 2 {
		t.Errorf("replica losses = %d, want 2", st.ReplicaLosses)
	}

	if err := suite.Insert(ctx, "k2", "v"); err != nil {
		t.Fatalf("second insert with two lost members = %v, want success via retry", err)
	}
	st = suite.Stats()
	if st.Retries != 2 {
		t.Errorf("retries after second insert = %d, want 2 (one per operation)", st.Retries)
	}
	if st.ReplicaLosses != 4 {
		t.Errorf("replica losses after second insert = %d, want 4 (two per operation)", st.ReplicaLosses)
	}
}
