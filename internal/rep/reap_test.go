package rep

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repdir/internal/lock"
	"repdir/internal/wal"
)

// fakeClock is a Clock that moves only when advance moves it, running
// the one timer a representative arms on the caller's goroutine.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	at    time.Time
	f     func()
	armed bool
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	c.f = f
	c.mu.Unlock()
	c.Reset(d)
	return c
}

func (c *fakeClock) Reset(d time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	was := c.armed
	c.at, c.armed = c.now.Add(d), true
	return was
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	due := c.armed && !c.at.After(c.now)
	if due {
		c.armed = false
	}
	f := c.f
	c.mu.Unlock()
	if due {
		f()
	}
}

// TestStrayReapedAtDeadline: a transaction that took locks and never
// prepared — its coordinator is gone — is aborted by the member itself
// once its deadline passes: its locks are free, its write is undone,
// nothing is appended to the log, and nothing sweeps. Its deadline is
// the lease with no deadline on the call, the call's own otherwise, and
// every call renews it.
func TestStrayReapedAtDeadline(t *testing.T) {
	clk := &fakeClock{}
	log := &wal.MemoryLog{}
	r := New("A", WithLog(log), WithClock(clk))
	mustInsert(t, r, 1, "a", 1, "va")
	logged := len(log.Records())

	if _, err := r.Lookup(ctx, 5, k("a")); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(ctx, 5, k("b"), 1, "vb"); err != nil {
		t.Fatal(err)
	}
	clk.advance(CallTimeout - time.Nanosecond)
	if n := r.Locks().HeldBy(5); n != 2 {
		t.Fatalf("before its lease ran out the transaction holds %d locks, want 2", n)
	}
	clk.advance(time.Nanosecond)
	if n := r.Locks().HeldBy(5); n != 0 {
		t.Fatalf("past its lease the transaction holds %d locks", n)
	}
	if got, _ := r.Lookup(MarkOneShot(ctx), 6, k("b")); got.Found {
		t.Error("the reaped transaction's write is still stored")
	}
	if n := len(log.Records()) - logged; n != 0 {
		t.Errorf("the reap appended %d records", n)
	}
	if c := r.Counters(); c.Reaped != 1 || c.Aborts != 0 {
		t.Errorf("reaped %d, aborts %d; want 1 and 0: no message asked for it", c.Reaped, c.Aborts)
	}
	if st, _ := r.Status(ctx, 5); st != StatusUnknown {
		t.Errorf("status of the reaped transaction = %v, want unknown", st)
	}

	// The call's own deadline, renewed by the next call.
	long, cancel := context.WithTimeout(ctx, 2*CallTimeout)
	defer cancel()
	if _, err := r.Lookup(long, 7, k("a")); err != nil {
		t.Fatal(err)
	}
	clk.advance(CallTimeout + time.Second)
	if _, err := r.Lookup(withMark(long, ContinuingMark), 7, k("b")); err != nil {
		t.Fatalf("a call inside its deadline: %v", err)
	}
	clk.advance(CallTimeout + time.Second) // past the first call's deadline
	if n := r.Locks().HeldBy(7); n != 2 {
		t.Fatalf("a renewed transaction holds %d locks, want 2", n)
	}
	clk.advance(CallTimeout)
	if n := r.Locks().ActiveTransactions(); n != 0 {
		t.Fatalf("%d transactions hold locks past every deadline", n)
	}
}

// TestReapSparesLogged: a prepared transaction waits for its decision
// however late, and so does one whose prepare reached the log before the
// step failed: its abort must be logged, and only Abort does that.
func TestReapSparesLogged(t *testing.T) {
	clk := &fakeClock{}
	flaky := &flakyLog{}
	r := New("A", WithLog(flaky), WithClock(clk))
	if err := r.Insert(ctx, 5, k("a"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(MarkWriters(ctx, 1), 5); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(ctx, 6, k("b"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	flaky.fail = true
	if err := r.Prepare(MarkWriters(ctx, 1), 6); err == nil {
		t.Fatal("prepare over a failing log succeeded")
	}
	flaky.fail = false
	clk.advance(10 * CallTimeout)
	for _, id := range []lock.TxnID{5, 6} {
		if n := r.Locks().HeldBy(id); n != 1 {
			t.Errorf("txn %d holds %d locks after every deadline, want its write lock", id, n)
		}
	}
	if st, _ := r.Status(ctx, 5); st.Fate() != StatusInDoubt {
		t.Errorf("prepared txn status = %v, want in doubt", st)
	}
	if c := r.Counters(); c.Reaped != 0 {
		t.Errorf("reaped %d logged transactions", c.Reaped)
	}
	if err := r.Abort(ctx, 6); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.Status(ctx, 6); st != StatusAborted {
		t.Errorf("status after the abort = %v, want aborted: the abort is logged", st)
	}
}

// TestContinuingCallAfterReap: a call of a transaction the member reaped
// that says it is not the transaction's first here is refused — data
// calls of every kind — and leaves no lock; the coordinator's prepare
// votes abort, and a Commit sent anyway applies nothing and logs
// nothing: the member never acknowledges the write it undid.
func TestContinuingCallAfterReap(t *testing.T) {
	clk := &fakeClock{}
	log := &wal.MemoryLog{}
	r := New("A", WithLog(log), WithClock(clk))
	mustInsert(t, r, 1, "a", 1, "va")
	mustInsert(t, r, 2, "c", 1, "vc")
	if err := r.Insert(ctx, 5, k("b"), 1, "vb"); err != nil {
		t.Fatal(err)
	}
	clk.advance(CallTimeout)
	logged, commits := len(log.Records()), r.Counters().Commits

	cont := withMark(ctx, ContinuingMark)
	refused := map[string]error{
		"lookup": func() error { _, err := r.Lookup(cont, 5, k("a")); return err }(),
		"successors": func() error {
			_, err := r.SuccessorBatch(cont, 5, k("a"), 2)
			return err
		}(),
		"insert":   r.Insert(cont, 5, k("d"), 1, "vd"),
		"coalesce": func() error { _, err := r.Coalesce(cont, 5, k("a"), k("c"), 2); return err }(),
		"prepare":  r.Prepare(MarkWriters(ctx, 1), 5),
	}
	for call, err := range refused {
		if !errors.Is(err, ErrUnknownTxn) {
			t.Errorf("%s after the reap = %v, want ErrUnknownTxn", call, err)
		}
	}
	if n := r.Locks().ActiveTransactions(); n != 0 {
		t.Errorf("%d transactions hold locks after the refused calls", n)
	}
	if err := r.Commit(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Lookup(MarkOneShot(ctx), 6, k("b")); got.Found {
		t.Error("a commit after the reap brought the undone write back")
	}
	if n, c := len(log.Records())-logged, r.Counters().Commits-commits; n != 0 || c != 0 {
		t.Errorf("a commit after the reap logged %d records and counted %d commits", n, c)
	}
}

// TestRestartBetweenCallsRefused is DESIGN.md §8's interleaving: T
// writes k1 at a durable member, which is reopened from its log before
// T's next call; T's continuing write of k2 is refused, and so is its
// prepare, instead of preparing k2 alone.
func TestRestartBetweenCallsRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.wal")
	r, d, err := OpenDurable("A", path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(ctx, 5, k("k1"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, d, err = OpenDurable("A", path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := r.Insert(withMark(ctx, ContinuingMark), 5, k("k2"), 1, "v"); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("continuing write after the restart = %v, want ErrUnknownTxn", err)
	}
	if n := r.Locks().HeldBy(5); n != 0 {
		t.Errorf("the refused write left %d locks", n)
	}
	if err := r.Prepare(MarkWriters(ctx, 2), 5); !errors.Is(err, ErrUnknownTxn) {
		t.Errorf("prepare after the restart = %v, want ErrUnknownTxn", err)
	}
	if r.Len() != 2 {
		t.Errorf("the reopened member holds %d entries, want the sentinels alone", r.Len())
	}
}

// TestReaperRacesCalls runs the reaper on the wall clock, on its own
// goroutine, against calls that keep opening, renewing, finishing and
// abandoning transactions with deadlines a few milliseconds away:
// whatever the interleaving, every abandoned transaction is reaped and
// no lock is left.
func TestReaperRacesCalls(t *testing.T) {
	r := New("A", WithLog(&wal.MemoryLog{}))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := lock.TxnID(1000*(g+1) + i)
				cctx, cancel := context.WithTimeout(ctx, time.Duration(1+i%3)*time.Millisecond)
				key := k(string(rune('a'+g)) + string(rune('a'+i%26)))
				if _, err := r.Lookup(cctx, id, key); err == nil && i%2 == 0 {
					r.Insert(withMark(cctx, ContinuingMark), id, key, 1, "v")
					r.Abort(ctx, id)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	for end := time.Now().Add(5 * time.Second); r.Locks().ActiveTransactions() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d transactions still hold locks", r.Locks().ActiveTransactions())
		}
	}
	if c := r.Counters(); c.Reaped == 0 {
		t.Error("nothing was reaped")
	}
}

// TestLateCallRefused: a data call that arrives past its own deadline
// is refused, keeping no lock and opening no transaction: a reap may
// have overtaken it, and a transaction opened afresh then would lack
// what the reaped one held.
func TestLateCallRefused(t *testing.T) {
	r := New("A", WithClock(&fakeClock{}))
	late, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := r.Lookup(late, 5, k("a")); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("late lookup = %v, want DeadlineExceeded", err)
	}
	if err := r.Insert(late, 5, k("a"), 1, "v"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("late insert = %v, want DeadlineExceeded", err)
	}
	if n := r.Locks().ActiveTransactions(); n != 0 {
		t.Errorf("%d transactions hold locks after late calls", n)
	}
	if err := r.Prepare(MarkWriters(ctx, 1), 5); !errors.Is(err, ErrUnknownTxn) {
		t.Errorf("prepare after late calls = %v, want ErrUnknownTxn", err)
	}
}
