package fault

import (
	"context"
	"errors"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/txn"
)

var ctx = context.Background()

// TestMemberScheduleIsDeterministic: two members with the same seed and
// plan, driven through the same call sequence, must inject the same
// faults in the same places.
func TestMemberScheduleIsDeterministic(t *testing.T) {
	run := func() ([]bool, Stats) {
		m := NewMember("A", DefaultPlan(), 77)
		outcomes := make([]bool, 0, 1500)
		for i := 0; i < 1500; i++ {
			_, err := m.Lookup(ctx, lock.TxnID(i+1), keyspace.New("x"))
			outcomes = append(outcomes, err != nil)
		}
		return outcomes, m.Stats()
	}
	o1, s1 := run()
	o2, s2 := run()
	if s1 != s2 {
		t.Fatalf("same seed, different stats:\n  %+v\n  %+v", s1, s2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("same seed, schedules diverge at call %d", i)
		}
	}
	if s1.Crashes == 0 || s1.Partitions == 0 || s1.Duplicates == 0 {
		t.Errorf("default plan over 1500 calls should inject every kind, got %+v", s1)
	}
	if s1.Restarts == 0 {
		t.Error("crash windows should have closed with restarts")
	}
}

// TestCrashLosesVolatileStateRecoversCommitted: a crash drops in-flight
// transactions (and their locks) while committed state survives via
// recovery from the write-ahead log.
func TestCrashLosesVolatileStateRecoversCommitted(t *testing.T) {
	m := NewMember("A", Plan{PCrash: 1, DownMin: 2, DownMax: 2}, 1)
	r := m.Rep()
	if err := r.Insert(ctx, 1, keyspace.New("committed"), 1, "v1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// In-flight, uncommitted write holding a lock.
	if err := r.Insert(ctx, 2, keyspace.New("inflight"), 1, "v2"); err != nil {
		t.Fatal(err)
	}

	if _, err := m.Lookup(ctx, 3, keyspace.New("committed")); err == nil {
		t.Fatal("first call under PCrash=1 should find the member crashed")
	}
	if err := m.Heal(); err != nil {
		t.Fatal(err)
	}
	m.Quiesce()
	st := m.Stats()
	if st.Crashes != 1 || st.Restarts != 1 {
		t.Fatalf("stats = %+v, want one crash and one restart", st)
	}

	// The in-flight transaction's lock died with the crash: a new writer
	// proceeds immediately instead of hitting wait-die.
	if err := m.Insert(ctx, 6, keyspace.New("inflight"), 1, "v3"); err != nil {
		t.Errorf("insert over crashed txn's key = %v, want success", err)
	}
	if err := m.Abort(ctx, 6); err != nil {
		t.Fatal(err)
	}

	res, err := m.Lookup(ctx, 4, keyspace.New("committed"))
	if err != nil || !res.Found || res.Value != "v1" {
		t.Errorf("committed entry after restart = %+v, %v; want found v1", res, err)
	}
	res, err = m.Lookup(ctx, 5, keyspace.New("inflight"))
	if err != nil || res.Found {
		t.Errorf("in-flight entry after restart = %+v, %v; want absent", res, err)
	}
}

// TestInjectorResolvesInDoubtAfterCrashRestart: a crash between the two
// phases of 2PC leaves the restarted member in doubt; txn.Resolve over
// the injector's members must drive it to the decision the surviving
// participant recorded.
func TestInjectorResolvesInDoubtAfterCrashRestart(t *testing.T) {
	in := NewInjector([]string{"A", "B"}, Plan{}, 1)
	ma, mb := in.Members()[0], in.Members()[1]
	id := lock.TxnID(9)
	key := keyspace.New("k")
	for _, m := range in.Members() {
		if err := m.Insert(ctx, id, key, 1, "v"); err != nil {
			t.Fatal(err)
		}
		if err := m.Prepare(rep.MarkWriters(ctx, 2), id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ma.Commit(ctx, id); err != nil {
		t.Fatal(err)
	}
	inDoubt := func() []lock.TxnID {
		var out []lock.TxnID
		for _, m := range in.Members() {
			out = append(out, m.InDoubt()...)
		}
		return out
	}

	mb.Crash()
	if err := mb.Heal(); err != nil {
		t.Fatal(err)
	}
	if got := inDoubt(); len(got) != 1 || got[0] != id {
		t.Fatalf("in-doubt after crash-restart = %v, want [%d]", got, id)
	}

	res, err := txn.Resolve(ctx, id, in.Directories())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Finished); n != 1 {
		t.Errorf("resolved participants = %d, want 1", n)
	}
	if got := inDoubt(); len(got) != 0 {
		t.Errorf("in-doubt after resolve = %v, want none", got)
	}
	lres, err := mb.Lookup(ctx, 20, key)
	if err != nil || !lres.Found || lres.Value != "v" {
		t.Errorf("B lookup after resolve = %+v, %v; want found v", lres, err)
	}
}

// TestCrashInsidePartitionLosesVolatileState: a Crash while a partition
// window is open is still a crash: when the member comes back, the
// transaction in flight at the crash and its lock are gone.
func TestCrashInsidePartitionLosesVolatileState(t *testing.T) {
	m := NewMember("A", Plan{PPartition: 1, DownMin: 5, DownMax: 5}, 1)
	key := keyspace.New("k")
	if err := m.Rep().Insert(ctx, 2, key, 1, "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Lookup(ctx, 3, key); !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("first call under PPartition=1 = %v, want the member partitioned", err)
	}
	m.Crash()
	if err := m.Heal(); err != nil {
		t.Fatal(err)
	}
	if n := m.Rep().Locks().ActiveTransactions(); n != 0 {
		t.Errorf("%d transactions survived the crash, want none", n)
	}
	if st := m.Stats(); st.Crashes != 1 || st.Restarts != 1 {
		t.Errorf("stats = %+v, want one crash and one restart", st)
	}
}

// TestCrashFencesInFlightCall: a call held at the member in a lock wait
// when the member crashes still runs at the dead incarnation once the
// lock frees — nothing stops its goroutine — but its log append is
// refused, its reply fails, and the restart does not replay it.
func TestCrashFencesInFlightCall(t *testing.T) {
	m := NewMember("A", Plan{}, 1)
	dead, key := m.Rep(), keyspace.New("k")
	if _, err := dead.Lookup(ctx, 2, key); err != nil {
		t.Fatal(err)
	}
	// The older transaction 1 waits for the younger reader's lock, with
	// its prepare riding on the insert.
	done := make(chan error, 1)
	go func() {
		done <- m.Insert(rep.MarkWriters(rep.MarkPrepare(ctx), 1), 1, key, 1, "v")
	}()
	for dead.Locks().Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	m.Crash()
	if err := dead.Abort(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, transport.ErrUnavailable) {
		t.Errorf("call across the crash = %v, want ErrUnavailable", err)
	}
	if ids := dead.InDoubt(); len(ids) != 0 {
		t.Errorf("the dead incarnation prepared %v: its log took the append", ids)
	}
	if err := m.Heal(); err != nil {
		t.Fatal(err)
	}
	if ids := m.Rep().InDoubt(); len(ids) != 0 {
		t.Errorf("the restart replayed a prepare of %v from the dead incarnation", ids)
	}
}

// TestDeliverySemantics pins what each mid-transaction fault does to one
// call: whether the representative executed it, what the caller got, and
// what the member counted. A dropped reply and a crash after executing
// both hide a call that happened behind ErrUnavailable and the zero
// result; a duplicate executes twice and returns the second reply.
func TestDeliverySemantics(t *testing.T) {
	stored := rep.LookupResult{Found: true, Version: 1, Value: "v"}
	for _, tc := range []struct {
		name     string
		plan     Plan
		executed uint64 // lookups the representative ran
		err      error
		res      rep.LookupResult
		stats    Stats
		up       bool
	}{
		{"drop-reply", Plan{PDropReply: 1}, 1, transport.ErrUnavailable, rep.LookupResult{}, Stats{Calls: 1, DroppedReplies: 1}, true},
		{"crash-after", Plan{PCrashAfter: 1}, 1, transport.ErrUnavailable, rep.LookupResult{}, Stats{Calls: 1, CrashAfters: 1}, false},
		{"duplicate", Plan{PDuplicate: 1}, 2, nil, stored, Stats{Calls: 1, Duplicates: 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMember("A", tc.plan, 1)
			r := m.Rep()
			key := keyspace.New("k")
			if err := r.Insert(ctx, 1, key, stored.Version, stored.Value); err != nil {
				t.Fatal(err)
			}
			if err := r.Commit(ctx, 1); err != nil {
				t.Fatal(err)
			}
			res, err := m.Lookup(ctx, 2, key)
			if !errors.Is(err, tc.err) || res != tc.res {
				t.Errorf("caller got %+v, %v; want %+v, %v", res, err, tc.res, tc.err)
			}
			if got := r.Counters().Lookups; got != tc.executed {
				t.Errorf("representative executed %d lookups, want %d", got, tc.executed)
			}
			if st := m.Stats(); st != tc.stats {
				t.Errorf("stats = %+v, want %+v", st, tc.stats)
			}
			if m.Up() != tc.up {
				t.Errorf("member up = %v, want %v", m.Up(), tc.up)
			}
		})
	}
}
