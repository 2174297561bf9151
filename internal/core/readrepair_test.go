package core

import (
	"context"
	"testing"
	"time"

	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/version"
)

// newReadRepairSuite builds a scripted 3-replica 2/2 suite with read
// repair enabled, so tests can choose exactly which members serve each
// quorum and observe the asynchronous freshens.
func newReadRepairSuite(t *testing.T, queue int) *testSuite {
	t.Helper()
	names := []string{"A", "B", "C"}
	reps := make([]*rep.Rep, len(names))
	locals := make([]*transport.Local, len(names))
	dirs := make([]rep.Directory, len(names))
	for i, n := range names {
		reps[i] = rep.New(n)
		locals[i] = transport.NewLocal(reps[i])
		dirs[i] = locals[i]
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	script := &scriptSelector{cfg: cfg}
	s, err := NewSuite(cfg, WithSelector(script), WithReadRepair(queue))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return &testSuite{suite: s, reps: reps, locals: locals, script: script}
}

// drain waits for all enqueued read repairs to be attempted.
func drain(t *testing.T, s *Suite) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestReadRepairFreshensStaleReplica checks the core loop: a quorum
// read that observes a responder missing (then later holding a stale
// copy of) the winning entry enqueues an asynchronous freshen that
// brings exactly that member up to the winning version.
func TestReadRepairFreshensStaleReplica(t *testing.T) {
	ctx := context.Background()
	ts := newReadRepairSuite(t, 16)

	// Write k to {A, B}; C is left behind at its gap version.
	ts.script.set([]int{0, 1}, []int{0, 1})
	if err := ts.suite.Insert(ctx, "k", "v1"); err != nil {
		t.Fatal(err)
	}
	if has, _ := ts.repHas(2, "k"); has {
		t.Fatal("C has the entry before any repair")
	}

	// A read served by {B, C} sees B's entry win over C's gap: C's copy
	// is missing, so the read enqueues a freshen of k on C.
	ts.script.set([]int{1, 2}, []int{0, 1})
	if v, found, err := ts.suite.Lookup(ctx, "k"); err != nil || !found || v != "v1" {
		t.Fatalf("lookup = %q,%v,%v", v, found, err)
	}
	drain(t, ts.suite)
	if has, ver := ts.repHas(2, "k"); !has || ver != version.V(1) {
		t.Fatalf("C after read repair: has=%v ver=%v, want entry at version 1", has, ver)
	}
	st := ts.suite.Stats()
	if st.ReadRepairEnqueued != 1 || st.ReadRepairDone != 1 || st.ReadRepairCopied != 1 {
		t.Errorf("stats = %+v, want 1 enqueued, 1 done, 1 copied", st)
	}

	// Update through {A, B}: C is stale again, now with an old entry
	// rather than a gap — the freshen path, not the copy path.
	ts.script.set([]int{0, 1}, []int{0, 1})
	if err := ts.suite.Update(ctx, "k", "v2"); err != nil {
		t.Fatal(err)
	}
	ts.script.set([]int{1, 2}, []int{0, 1})
	if v, _, err := ts.suite.Lookup(ctx, "k"); err != nil || v != "v2" {
		t.Fatalf("lookup = %q,%v", v, err)
	}
	drain(t, ts.suite)
	if has, ver := ts.repHas(2, "k"); !has || ver != version.V(2) {
		t.Fatalf("C after second read repair: has=%v ver=%v, want version 2", has, ver)
	}
	if st := ts.suite.Stats(); st.ReadRepairFreshened != 1 {
		t.Errorf("freshened = %d, want 1", st.ReadRepairFreshened)
	}
}

// TestReadRepairIgnoresGhosts checks the delete interaction: when the
// winning reply is a gap (key deleted), a responder still holding an
// old entry is a ghost, and read repair must NOT touch it — there is
// nothing current to install, and installing anything would risk
// resurrection. Version dominance already makes the ghost invisible.
func TestReadRepairIgnoresGhosts(t *testing.T) {
	ctx := context.Background()
	ts := newReadRepairSuite(t, 16)

	// Write k everywhere, then delete it through {A, B} only: C keeps
	// its now-ghost entry at version 1.
	// (A point write draws its write quorum from the members it read
	// from, so "everywhere" has to read everywhere too.)
	ts.script.set([]int{0, 1, 2}, []int{0, 1, 2})
	if err := ts.suite.Insert(ctx, "k", "v1"); err != nil {
		t.Fatal(err)
	}
	ts.script.set([]int{0, 1}, []int{0, 1})
	if err := ts.suite.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if has, _ := ts.repHas(2, "k"); !has {
		t.Fatal("C lost its entry without participating in the delete")
	}

	// A read over {A, C}: A's gap version dominates C's ghost entry, so
	// the key reads as absent — and no repair may be enqueued.
	ts.script.set([]int{0, 2}, []int{0, 1})
	if _, found, err := ts.suite.Lookup(ctx, "k"); err != nil || found {
		t.Fatalf("lookup after delete: found=%v err=%v", found, err)
	}
	drain(t, ts.suite)
	if st := ts.suite.Stats(); st.ReadRepairEnqueued != 0 {
		t.Errorf("ghost observation enqueued %d repairs, want 0", st.ReadRepairEnqueued)
	}
}

// TestReadRepairNoSelfLoop checks that internal repair transactions
// (RepairReplica and the freshens themselves) never enqueue further
// read repairs, even when their own quorum reads observe staleness —
// otherwise one stale member could generate repair traffic forever.
func TestReadRepairNoSelfLoop(t *testing.T) {
	ctx := context.Background()
	ts := newReadRepairSuite(t, 16)

	ts.script.set([]int{0, 1}, []int{0, 1})
	if err := ts.suite.Insert(ctx, "k", "v1"); err != nil {
		t.Fatal(err)
	}
	// RepairReplica(C) with read quorums served by {B, C}: every quorum
	// lookup inside the repair observes C's staleness, but being a
	// repair transaction it must fix C directly, not enqueue jobs.
	ts.script.set([]int{1, 2}, []int{0, 1})
	stats, err := RepairReplica(ctx, ts.suite, ts.locals[2], RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied != 1 {
		t.Errorf("repair copied %d, want 1", stats.Copied)
	}
	if st := ts.suite.Stats(); st.ReadRepairEnqueued != 0 {
		t.Errorf("repair transaction enqueued %d read repairs, want 0", st.ReadRepairEnqueued)
	}
}

// TestReadRepairQueueBounds checks the lossy-queue contract: a full
// queue drops (and counts) observations instead of blocking reads. The
// suite is built by hand with no worker, so the single-slot queue
// cannot drain between the enqueues.
func TestReadRepairQueueBounds(t *testing.T) {
	s := &Suite{rrQueue: make(chan readRepairJob, 1)}
	s.enqueueReadRepair(readRepairJob{key: "a"})
	s.enqueueReadRepair(readRepairJob{key: "b"})
	st := s.Stats()
	if st.ReadRepairEnqueued != 1 || st.ReadRepairDropped != 1 {
		t.Errorf("stats = %+v, want 1 enqueued, 1 dropped", st)
	}
}

// TestReadRepairCloseAccounting is the regression test for two Close
// bugs: the drain spun forever when jobs were still queued at Close (the
// worker that would have attempted them is gone), and
// enqueues arriving after Close were counted as enqueued although they
// can never be attempted. Ordering covered: enqueue → Close → enqueue →
// Drain. The suite is built by hand with no worker, so the queued jobs
// deterministically outlive Close.
func TestReadRepairCloseAccounting(t *testing.T) {
	s := &Suite{
		rrQueue:  make(chan readRepairJob, 4),
		rrCancel: func() {},
	}
	s.enqueueReadRepair(readRepairJob{key: "a"})
	s.enqueueReadRepair(readRepairJob{key: "b"})
	if st := s.Stats(); st.ReadRepairEnqueued != 2 {
		t.Fatalf("enqueued = %d, want 2", st.ReadRepairEnqueued)
	}

	// Close must discard the two queued jobs and count them dropped.
	s.Close()
	if st := s.Stats(); st.ReadRepairDropped != 2 {
		t.Errorf("dropped after Close = %d, want 2", st.ReadRepairDropped)
	}

	// A post-Close observation counts as dropped, never as enqueued.
	s.enqueueReadRepair(readRepairJob{key: "c"})
	st := s.Stats()
	if st.ReadRepairEnqueued != 2 || st.ReadRepairDropped != 3 {
		t.Errorf("stats after post-Close enqueue = %+v, want 2 enqueued, 3 dropped", st)
	}

	// Drain must return promptly: done+failed (0) never catches up with
	// enqueued (2), but the worker is gone, so there is nothing to wait
	// for. Before the fix this spun until the context expired.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("Drain after Close: %v", err)
	}

	// Close is idempotent.
	s.Close()
}

// TestReadRepairPartialTargetFailure is the regression test for the
// all-or-nothing repair bug: one job with several stale targets ran as
// a single transaction, so one unreachable target voided (and
// discarded the stats of) the installs on the others. Each target now
// gets its own transaction: the healthy member is repaired and
// counted, the partitioned one reports the error.
func TestReadRepairPartialTargetFailure(t *testing.T) {
	ctx := context.Background()
	names := []string{"A", "B", "C", "D", "E"}
	reps := make([]*rep.Rep, len(names))
	locals := make([]*transport.Local, len(names))
	dirs := make([]rep.Directory, len(names))
	for i, n := range names {
		reps[i] = rep.New(n)
		locals[i] = transport.NewLocal(reps[i])
		dirs[i] = locals[i]
	}
	cfg := quorum.NewUniform(dirs, 3, 3)
	script := &scriptSelector{cfg: cfg}
	s, err := NewSuite(cfg, WithSelector(script), WithMaxRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	ts := &testSuite{suite: s, reps: reps, locals: locals, script: script}

	// Write k to {A, B, C}; D and E are both stale (missing copies).
	ts.script.set([]int{0, 1, 2}, []int{0, 1, 2})
	if err := s.Insert(ctx, "k", "v1"); err != nil {
		t.Fatal(err)
	}

	// Partition D, then run one job against both stale members, the
	// partitioned one first.
	locals[3].Crash()
	stats, err := s.repairKeyOn(ctx, "k", []rep.Directory{locals[3], locals[4]})
	if err == nil {
		t.Error("repairKeyOn with a partitioned target returned no error")
	}
	if stats.Copied != 1 {
		t.Errorf("copied = %d, want 1 (the healthy target)", stats.Copied)
	}
	if has, ver := ts.repHas(4, "k"); !has || ver != version.V(1) {
		t.Errorf("E after partial repair: has=%v ver=%v, want entry at version 1", has, ver)
	}
	if has, _ := ts.repHas(3, "k"); has {
		t.Error("partitioned D acquired the entry")
	}
}
