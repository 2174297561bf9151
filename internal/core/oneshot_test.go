package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repdir/internal/fault"
	"repdir/internal/quorum"
)

// TestReadsLeakNoLocks: reads that lose their reply, or whose member
// crashes right after executing them, used to leave a read lock behind
// until an abort or a sweep of strays found it. A one-shot read releases
// before it answers, so whatever happens to the answer nothing is left:
// after a storm of lookups through members that drop replies and crash
// after executing, no member holds a lock or a transaction record —
// with no abort sent and no sweep run.
func TestReadsLeakNoLocks(t *testing.T) {
	ctx := context.Background()
	plan := fault.Plan{PDropReply: 0.15, PCrashAfter: 0.05, PDuplicate: 0.05, DownMin: 1, DownMax: 3,
		PDelay: 0.2, MaxLatency: 300 * time.Microsecond}
	in := fault.NewInjector([]string{"A", "B", "C"}, plan, 7)
	in.Suspend(true)
	cfg := quorum.NewUniform(in.Directories(), 2, 2)
	s, err := NewSuite(cfg, WithSelector(quorum.NewRandomSelector(cfg, 7)), WithParallelQuorum(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(ctx); err != nil { // no commit may meet a fault
		t.Fatal(err)
	}
	in.Suspend(false)

	failed := 0
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("k%d", i%8)
		if _, _, err := s.Lookup(ctx, key); err != nil {
			failed++ // two members down at once; nothing to do with locks
		}
	}
	in.Suspend(true)
	if err := in.Heal(); err != nil {
		t.Fatal(err)
	}
	var faults fault.Stats
	for _, st := range in.Stats() {
		faults.DroppedReplies += st.DroppedReplies
		faults.CrashAfters += st.CrashAfters
	}
	if faults.DroppedReplies == 0 || faults.CrashAfters == 0 {
		t.Fatalf("the plan injected %d dropped replies and %d crashes after execution; want both", faults.DroppedReplies, faults.CrashAfters)
	}
	t.Logf("%d of 600 reads failed; %d replies dropped, %d crashes after executing", failed, faults.DroppedReplies, faults.CrashAfters)
	// A transaction is known at a member only while it holds a lock
	// there (rep.Rep.join), so a member that holds none remembers none.
	for _, m := range in.Members() {
		if n := m.Rep().Locks().ActiveTransactions(); n != 0 {
			t.Errorf("%d transactions hold locks at %s", n, m.Name())
		}
	}
}
