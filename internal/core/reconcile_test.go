package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repdir/internal/fault"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// newMemberSuite builds a suite over three zero-plan fault members,
// whose storage a test can lose.
func newMemberSuite(t *testing.T, r, w int, sel func(quorum.Config) quorum.Selector) *testSuite {
	t.Helper()
	in := fault.NewInjector([]string{"A", "B", "C"}, fault.Plan{}, 1)
	ts := &testSuite{members: in.Members()}
	for _, m := range ts.members {
		ts.reps = append(ts.reps, m.Rep())
	}
	cfg := quorum.NewUniform(in.Directories(), r, w)
	s, err := NewSuite(cfg, WithSelector(sel(cfg)))
	if err != nil {
		t.Fatal(err)
	}
	ts.suite = s
	return ts
}

// loseStorage models replica i coming back from a disk failure with
// nothing: each storage loss destroys part of its log's tail, until
// none is left, and it restarts empty and recovering.
func (ts *testSuite) loseStorage(t *testing.T, i int) *rep.Rep {
	m := ts.members[i]
	for m.LoseStorage() > 0 {
	}
	if err := m.Heal(); err != nil {
		t.Fatal(err)
	}
	ts.reps[i] = m.Rep()
	return ts.reps[i]
}

// TestReconcileRebuildsLostReplica wipes one replica of a fully
// replicated suite and rebuilds it from its peers: afterwards its entry
// dump — values, versions, and gap versions — must match a healthy
// replica byte for byte.
func TestReconcileRebuildsLostReplica(t *testing.T) {
	ctx := context.Background()
	ts := newMemberSuite(t, 2, 3, func(cfg quorum.Config) quorum.Selector { return quorum.NewRandomSelector(cfg, 404) })
	s := ts.suite

	for i := 0; i < 10; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("k%02d", i), "v1"); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"k03", "k07"} {
		if err := s.Delete(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Update(ctx, "k01", "v2"); err != nil {
		t.Fatal(err)
	}

	fresh := ts.loseStorage(t, 0)

	// While it rebuilds, the suite still serves reads around it.
	if _, found, err := s.Lookup(ctx, "k01"); err != nil || !found {
		t.Fatalf("lookup during rebuild: %v %v", found, err)
	}
	if _, err := fresh.Lookup(ctx, 999, fresh.Dump()[0].Key); !errors.Is(err, rep.ErrRecovering) {
		t.Fatalf("direct read on recovering replica = %v", err)
	}

	stats, err := RepairReplica(ctx, s, ts.members[0], RepairOptions{PageSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied != 8 {
		t.Errorf("Copied = %d, want 8 current entries", stats.Copied)
	}
	if stats.Gaps == 0 {
		t.Error("no gap segments reconciled")
	}
	fresh.SetRecovering(false)

	// Full physical agreement with a healthy replica (writes went to all
	// three, so B holds exactly the current state).
	a, b := ts.reps[0].Dump(), ts.reps[1].Dump()
	if len(a) != len(b) {
		t.Fatalf("entry counts differ after reconcile: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Key.Equal(b[i].Key) || a[i].Version != b[i].Version ||
			a[i].Value != b[i].Value || a[i].GapAfter != b[i].GapAfter {
			t.Errorf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}

	// Idempotency: a second pass finds nothing to do.
	again, err := RepairReplica(ctx, s, ts.members[0], RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Copied != 0 || again.Freshened != 0 {
		t.Errorf("second reconcile did work: %+v", again)
	}
}

// TestReconcileRestoresDeletionDominance is the quorum-intersection
// poison scenario: a delete acknowledged by {A, B} lives only in their
// gap versions; C still holds the ghost. If A then loses its storage,
// a future read quorum {A, C} contains no replica that remembers the
// deletion — unless the rebuild restores A's gap versions, which is
// exactly what RepairReplica's coalesces do.
func TestReconcileRestoresDeletionDominance(t *testing.T) {
	ctx := context.Background()
	script := &scriptSelector{}
	ts := newMemberSuite(t, 2, 2, func(quorum.Config) quorum.Selector { return script })
	s := ts.suite
	ts.prepopulate(t, "k")

	// Delete k with quorum {A, B}: their gap versions now dominate the
	// ghost k@1 that C keeps.
	script.set([]int{0, 1}, []int{0, 1})
	if err := s.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}

	// A forgets everything.
	fresh := ts.loseStorage(t, 0)

	// Rebuild A from a read quorum that must include B (C alone cannot
	// vouch for the deletion).
	script.set([]int{1, 2}, []int{1, 2})
	stats, err := RepairReplica(ctx, s, ts.members[0], RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Gaps == 0 {
		t.Fatal("reconcile installed no gap versions")
	}
	fresh.SetRecovering(false)

	// The poisoned quorum: {A, C}. C offers the ghost k@1; A must beat
	// it with the reconciled gap version, or the deletion resurrects.
	script.set([]int{0, 2}, []int{0, 2})
	if _, found, err := s.Lookup(ctx, "k"); err != nil {
		t.Fatal(err)
	} else if found {
		t.Fatal("deleted key resurrected through a rebuilt replica: gap versions were not restored")
	}

	// And A must not hold the ghost physically either.
	if has, _ := ts.repHas(0, "k"); has {
		t.Error("ghost entry installed on rebuilt replica")
	}
	// Its gap version dominates the ghost.
	for _, e := range ts.reps[0].Dump() {
		if e.Key.IsLow() && e.GapAfter < version.V(2) {
			t.Errorf("rebuilt gap version %d does not dominate ghost", e.GapAfter)
		}
	}
}
