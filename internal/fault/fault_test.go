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
	"repdir/internal/wal"
)

var ctx = context.Background()

// TestMemberScheduleIsDeterministic: two members with the same seed and
// plan, driven through the same call sequence, must inject the same
// faults in the same places.
func TestMemberScheduleIsDeterministic(t *testing.T) {
	run := func() ([]bool, Stats) {
		m, _ := NewRecovering("A", DefaultPlan(), 77)
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
	log := &wal.MemoryLog{}
	r := rep.New("A", rep.WithLog(log))
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

	m := NewMember("A", r, func() (rep.Directory, error) {
		return rep.Recover("A", log.Records(), rep.WithLog(log))
	}, Plan{PCrash: 1, DownMin: 2, DownMax: 2}, 1)

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

// TestBrownoutSlowLink: a constant slow link — a transport.Local with a
// fixed latency, as the overload harness builds each member — under a
// fault member: the latency is imposed on every call, the wait honors
// the caller's context, and the member counts both calls.
func TestBrownoutSlowLink(t *testing.T) {
	link := transport.NewLocal(rep.New("A"))
	link.SetLatency(20 * time.Millisecond)
	m := NewMember("A", link, nil, Plan{}, 1)

	start := time.Now()
	if _, err := m.Lookup(ctx, 1, keyspace.New("k")); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("slow link not imposed: call took %v", el)
	}

	// An already-expired context must cut the wait short.
	expired, cancel := context.WithCancel(ctx)
	cancel()
	start = time.Now()
	if _, err := m.Lookup(expired, 2, keyspace.New("k")); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired context: err = %v", err)
	}
	if el := time.Since(start); el > 10*time.Millisecond {
		t.Fatalf("cancelled call still waited %v", el)
	}

	if st := m.Stats(); st != (Stats{Calls: 2}) {
		t.Fatalf("stats = %+v, want 2 calls and nothing injected", st)
	}
	m.Abort(ctx, 1)
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
			m, _ := NewRecovering("A", tc.plan, 1)
			r := m.Rep().(*rep.Rep)
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
