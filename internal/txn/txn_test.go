package txn

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
)

var ctx = context.Background()

func TestIDSourceMonotonicAndUnique(t *testing.T) {
	s := NewIDSource(3)
	prev := lock.TxnID(0)
	for i := 0; i < 1000; i++ {
		id := s.Next()
		if id <= prev {
			t.Fatalf("IDs must be strictly increasing: %d after %d", id, prev)
		}
		prev = id
	}
}

func TestIDSourceNodeTagsDisjoint(t *testing.T) {
	a, b := NewIDSource(1), NewIDSource(2)
	seen := make(map[lock.TxnID]bool)
	for i := 0; i < 500; i++ {
		for _, s := range []*IDSource{a, b} {
			id := s.Next()
			if seen[id] {
				t.Fatalf("duplicate ID %d across node tags", id)
			}
			seen[id] = true
		}
	}
}

func TestIDSourceConcurrentUnique(t *testing.T) {
	s := NewIDSource(0)
	var mu sync.Mutex
	seen := make(map[lock.TxnID]bool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]lock.TxnID, 200)
			for i := range local {
				local[i] = s.Next()
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate concurrent ID %d", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestCommitSingleParticipant(t *testing.T) {
	r := rep.New("A")
	tx := New(100)
	if err := r.Insert(ctx, tx.ID, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	tx.Join(r)
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := r.Lookup(ctx, 101, keyspace.New("k"))
	if err != nil || !res.Found {
		t.Fatalf("lookup after commit: %+v %v", res, err)
	}
	r.Commit(ctx, 101)
}

func TestCommitTwoPhaseAcrossParticipants(t *testing.T) {
	a, b := rep.New("A"), rep.New("B")
	tx := New(100)
	for _, r := range []*rep.Rep{a, b} {
		if err := r.Insert(ctx, tx.ID, keyspace.New("k"), 1, "v"); err != nil {
			t.Fatal(err)
		}
		tx.Join(r)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*rep.Rep{a, b} {
		res, err := r.Lookup(ctx, 101, keyspace.New("k"))
		if err != nil || !res.Found {
			t.Fatalf("%s missing entry after 2PC: %+v %v", r.Name(), res, err)
		}
		r.Commit(ctx, 101)
	}
}

func TestAbortUndoesEverywhere(t *testing.T) {
	a, b := rep.New("A"), rep.New("B")
	tx := New(100)
	for _, r := range []*rep.Rep{a, b} {
		if err := r.Insert(ctx, tx.ID, keyspace.New("k"), 1, "v"); err != nil {
			t.Fatal(err)
		}
		tx.Join(r)
	}
	if err := tx.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*rep.Rep{a, b} {
		res, err := r.Lookup(ctx, 101, keyspace.New("k"))
		if err != nil || res.Found {
			t.Fatalf("%s should have no entry after abort: %+v %v", r.Name(), res, err)
		}
		r.Commit(ctx, 101)
	}
}

// ctxAbortDir refuses aborts once the caller's context is dead, the way
// a remote participant behind the transport does (the client never even
// sends the request).
type ctxAbortDir struct {
	*rep.Rep
}

func (d ctxAbortDir) Abort(ctx context.Context, id lock.TxnID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return d.Rep.Abort(ctx, id)
}

// TestAbortDeadContextStillReleasesLocks is the regression test for
// orphaned locks: an operation that failed by blowing its own deadline
// must still release its locks, even though the context it can offer
// the abort round is already dead. Without the detached abort, the
// locks stay held by a transaction nobody will ever resolve (wait-die
// cannot steal from an active holder) and every later operation on
// those keys blocks into the same deadline death.
func TestAbortDeadContextStillReleasesLocks(t *testing.T) {
	r := rep.New("A")
	tx := New(100)
	if err := r.Insert(ctx, tx.ID, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	tx.Join(ctxAbortDir{r})

	dead, cancel := context.WithCancel(ctx)
	cancel()
	if err := tx.Abort(dead); err != nil {
		t.Fatal(err)
	}

	// The write lock must be gone: transaction 200 is younger than 100,
	// so wait-die would kill it on the spot (ErrDie) if the lock were
	// still held.
	if err := r.Insert(ctx, 200, keyspace.New("k"), 2, "w"); err != nil {
		t.Fatalf("lock still held after dead-context abort: %v", err)
	}
	if err := r.Commit(ctx, 200); err != nil {
		t.Fatal(err)
	}
}

// clockAbortDir refuses an abort past its context's deadline by the
// clock, as the transport client does, after taking delay to get to it.
type clockAbortDir struct {
	*rep.Rep
	delay time.Duration
}

func (d clockAbortDir) Abort(ctx context.Context, id lock.TxnID) error {
	time.Sleep(d.delay)
	if at, ok := ctx.Deadline(); ok && !time.Now().Before(at) {
		return context.DeadlineExceeded
	}
	return d.Rep.Abort(ctx, id)
}

// lateTimerCtx has a deadline whose timer has not fired yet: Err stays
// nil however far the clock is past it, as in a loaded process.
type lateTimerCtx struct {
	context.Context
	at time.Time
}

func (c lateTimerCtx) Deadline() (time.Time, bool) { return c.at, true }

// TestAbortRedeliveredPastDeadlineByTheClock: an abort round whose
// context is past its deadline by the clock, on entry or by the time
// the round is over, is delivered under the Txn's own context, though
// the context's Err is still nil. Judged by Err alone, the round was
// refused at the participant and never redelivered, and the
// transaction held its locks there for good.
func TestAbortRedeliveredPastDeadlineByTheClock(t *testing.T) {
	for _, c := range []struct {
		name  string
		in    time.Duration // deadline from now
		delay time.Duration // the participant's time to get to the abort
	}{
		{"dead_on_entry", -time.Millisecond, 0},
		{"dies_mid_round", 20 * time.Millisecond, 40 * time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := rep.New("A")
			tx := New(100)
			if err := r.Insert(ctx, tx.ID, keyspace.New("k"), 1, "v"); err != nil {
				t.Fatal(err)
			}
			tx.Join(clockAbortDir{Rep: r, delay: c.delay})
			if err := tx.Abort(lateTimerCtx{Context: ctx, at: time.Now().Add(c.in)}); err != nil {
				t.Fatal(err)
			}
			// Transaction 200 is younger than 100: wait-die would kill it
			// on the spot if the lock were still held.
			if err := r.Insert(ctx, 200, keyspace.New("k"), 2, "w"); err != nil {
				t.Fatalf("lock still held after the abort: %v", err)
			}
			if err := r.Abort(ctx, 200); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// cancelOnPrepareDir votes yes at prepare, then kills the operation's
// context — the shape of a deadline blowing between the two rounds of
// 2PC. Its Commit refuses a dead context the way the transport client
// does (the request is never sent).
type cancelOnPrepareDir struct {
	*rep.Rep
	cancel context.CancelFunc
}

func (d cancelOnPrepareDir) Prepare(ctx context.Context, id lock.TxnID) error {
	err := d.Rep.Prepare(ctx, id)
	d.cancel()
	return err
}

func (d cancelOnPrepareDir) Commit(ctx context.Context, id lock.TxnID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return d.Rep.Commit(ctx, id)
}

// TestCommitDeliveredAfterMidRoundDeadline is the in-doubt twin of the
// dead-context abort test: once every participant has voted yes, the
// outcome is decided, and the commit round must be delivered even if
// the caller's deadline dies between the rounds. Abandoning it would
// strand the participant prepared and in-doubt, holding locks that only
// an external txn.Resolve could ever release.
func TestCommitDeliveredAfterMidRoundDeadline(t *testing.T) {
	r := rep.New("A")
	tx := New(100)
	if err := r.Insert(ctx, tx.ID, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	opCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	tx.Join(cancelOnPrepareDir{Rep: r, cancel: cancel})

	if err := tx.Commit(opCtx); err != nil {
		t.Fatalf("commit after mid-round cancellation = %v, want delivered", err)
	}
	res, err := r.Lookup(ctx, 150, keyspace.New("k"))
	if err != nil || !res.Found {
		t.Fatalf("lookup after redelivered commit: %+v %v", res, err)
	}
	if err := r.Commit(ctx, 150); err != nil {
		t.Fatal(err)
	}
	// And the write lock must be gone: a younger transaction would die
	// by wait-die if txn 100 still held it.
	if err := r.Insert(ctx, 200, keyspace.New("k"), 2, "w"); err != nil {
		t.Fatalf("lock still held after redelivered commit: %v", err)
	}
	if err := r.Abort(ctx, 200); err != nil {
		t.Fatal(err)
	}
}

func TestJoinDeduplicates(t *testing.T) {
	r := rep.New("A")
	tx := New(1)
	tx.Join(r)
	tx.Join(r)
	if err := tx.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if got := r.Counters().Aborts; got != 1 {
		t.Errorf("aborts sent = %d, want 1 to the one participant", got)
	}
}

func TestDoubleFinishRejected(t *testing.T) {
	tx := New(1)
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, ErrFinished) {
		t.Errorf("second commit = %v, want ErrFinished", err)
	}
	tx2 := New(2)
	if err := tx2.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(ctx); !errors.Is(err, ErrFinished) {
		t.Errorf("second abort = %v, want ErrFinished", err)
	}
}

// failingDir wraps a rep and fails Prepare, to exercise the abort-on-
// prepare-failure path.
type failingDir struct {
	*rep.Rep
}

var errPrepareBoom = errors.New("prepare refused")

func (f failingDir) Prepare(context.Context, lock.TxnID) error {
	return errPrepareBoom
}

func TestPrepareFailureAbortsAll(t *testing.T) {
	good := rep.New("good")
	bad := failingDir{Rep: rep.New("bad")}
	tx := New(100)
	if err := good.Insert(ctx, tx.ID, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := bad.Insert(ctx, tx.ID, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	tx.Join(good)
	tx.Join(bad)
	err := tx.Commit(ctx)
	if !errors.Is(err, errPrepareBoom) {
		t.Fatalf("commit = %v, want prepare failure", err)
	}
	// The good participant must have rolled back.
	res, err := good.Lookup(ctx, 101, keyspace.New("k"))
	if err != nil || res.Found {
		t.Fatalf("good participant kept aborted write: %+v %v", res, err)
	}
	good.Commit(ctx, 101)
}

func TestEmptyTransactionCommit(t *testing.T) {
	tx := New(1)
	if err := tx.Commit(ctx); err != nil {
		t.Errorf("empty commit = %v", err)
	}
}

// callLog records which two-phase-commit calls reach a participant.
type callLog struct {
	*rep.Rep
	mu    *sync.Mutex
	calls *[]string
}

func (d callLog) note(call string) {
	d.mu.Lock()
	*d.calls = append(*d.calls, call+" "+d.Name())
	d.mu.Unlock()
}

func (d callLog) Prepare(ctx context.Context, id lock.TxnID) error {
	d.note("prepare")
	return d.Rep.Prepare(ctx, id)
}

func (d callLog) Commit(ctx context.Context, id lock.TxnID) error {
	d.note("commit")
	return d.Rep.Commit(ctx, id)
}

func (d callLog) Abort(ctx context.Context, id lock.TxnID) error {
	d.note("abort")
	return d.Rep.Abort(ctx, id)
}

// TestReadersAndVotersGetOneMessage: a reader is asked to prepare and
// told nothing more; a participant that voted on its last write is told
// to commit and asked nothing; a plain participant gets both.
func TestReadersAndVotersGetOneMessage(t *testing.T) {
	var mu sync.Mutex
	var calls []string
	wrap := func(name string) callLog { return callLog{Rep: rep.New(name), mu: &mu, calls: &calls} }
	reader, voter, plain := wrap("reader"), wrap("voter"), wrap("plain")
	key := keyspace.New("k")

	tx := New(100)
	tx.JoinReader(reader)
	tx.JoinReader(voter) // read first, like a point write's version read
	for _, d := range []callLog{reader, voter} {
		if _, err := d.Lookup(ctx, tx.ID, key); err != nil {
			t.Fatal(err)
		}
	}
	tx.Join(voter)
	if err := voter.Insert(rep.MarkWriters(rep.MarkPrepare(ctx), 2), tx.ID, key, 1, "v"); err != nil {
		t.Fatal(err)
	}
	tx.Voted(voter)
	tx.Join(plain)
	if err := plain.Insert(ctx, tx.ID, key, 1, "v"); err != nil {
		t.Fatal(err)
	}
	tx.JoinReader(plain) // a later read does not make a writer a reader
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	want := []string{"prepare reader", "prepare plain", "commit voter", "commit plain"}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
	for _, d := range []callLog{reader, voter, plain} {
		if n := d.Locks().ActiveTransactions(); n != 0 {
			t.Errorf("%s still holds locks for %d transactions", d.Name(), n)
		}
	}
}

// TestRefusedPrepareAbortsWhoeverStillHolds: when a participant refuses,
// the abort goes to the writers and to the readers that did not get to
// vote yes — a reader that did has let go already. The readers vote
// before any writer is asked, so a reader's refusal leaves the writers
// unprepared.
func TestRefusedPrepareAbortsWhoeverStillHolds(t *testing.T) {
	var mu sync.Mutex
	var calls []string
	wrap := func(name string) callLog { return callLog{Rep: rep.New(name), mu: &mu, calls: &calls} }
	released, lost, writer := wrap("released"), wrap("lost"), wrap("writer")
	key := keyspace.New("k")

	tx := New(100)
	tx.JoinReader(released)
	if _, err := released.Lookup(ctx, tx.ID, key); err != nil {
		t.Fatal(err)
	}
	tx.JoinReader(lost) // joined, but the representative has no record: it restarted
	tx.Join(writer)
	if err := writer.Insert(ctx, tx.ID, key, 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, rep.ErrUnknownTxn) {
		t.Fatalf("commit = %v, want the lost reader's abort vote", err)
	}
	want := []string{"prepare released", "prepare lost", "abort lost", "abort writer"}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
	if st, _ := writer.Status(ctx, tx.ID); st != rep.StatusUnknown {
		t.Errorf("writer status = %v, want unknown: it was never asked to prepare", st)
	}
	for _, d := range []callLog{released, lost, writer} {
		if n := d.Locks().ActiveTransactions(); n != 0 {
			t.Errorf("%s still holds locks for %d transactions", d.Name(), n)
		}
	}
}

// TestReleaseDetached: with Parallel set, Release sends the abort round
// and returns; the round runs under the Txn's own context, so the
// caller's cancelling at once takes nothing back, and over members that
// never wait on Done it makes no channel and arms no timer. Landed runs
// once, after every participant has let go.
func TestReleaseDetached(t *testing.T) {
	reps := []*rep.Rep{rep.New("A"), rep.New("B")}
	tx := New(100)
	tx.Parallel = true
	landed := make(chan struct{}, 2)
	tx.Landed = func() { landed <- struct{}{} }
	for _, r := range reps {
		if _, err := r.Lookup(ctx, tx.ID, keyspace.New("k")); err != nil {
			t.Fatal(err)
		}
		tx.JoinReader(r)
	}
	callerCtx, cancel := context.WithCancel(ctx)
	tx.Release(callerCtx)
	cancel()
	<-landed
	for _, r := range reps {
		if n := r.Locks().ActiveTransactions(); n != 0 || r.Counters().Aborts != 1 {
			t.Errorf("%s: %d transactions hold locks after %d aborts, want none after 1", r.Name(), n, r.Counters().Aborts)
		}
	}
	if tx.grace.Armed() {
		t.Error("a release nobody waited on made a channel and armed a timer")
	}
	select {
	case <-landed:
		t.Error("Landed ran twice")
	default:
	}
}

// TestReleaseSendsTheDueCommit: after a yes Vote the transaction is
// committed, and Release sends its commit round — to the writers, not to
// the reader the vote released — detached with Parallel set. Landed runs
// once, after both writers have committed.
func TestReleaseSendsTheDueCommit(t *testing.T) {
	a, b, c := rep.New("A"), rep.New("B"), rep.New("C")
	key := keyspace.New("k")
	tx := New(100)
	tx.Parallel = true
	landed := make(chan struct{}, 2)
	tx.Landed = func() { landed <- struct{}{} }
	tx.JoinReader(c)
	if _, err := c.Lookup(ctx, tx.ID, key); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*rep.Rep{a, b} {
		if err := tx.Join(r); err != nil {
			t.Fatal(err)
		}
		if err := r.Insert(ctx, tx.ID, key, 1, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Vote(ctx); err != nil {
		t.Fatalf("vote = %v, want yes", err)
	}
	tx.Release(ctx)
	<-landed
	for _, r := range []*rep.Rep{a, b} {
		if st, _ := r.Status(ctx, tx.ID); st != rep.StatusCommitted || r.Locks().ActiveTransactions() != 0 {
			t.Errorf("%s: status %v with %d transactions holding locks, want committed and none", r.Name(), st, r.Locks().ActiveTransactions())
		}
	}
	if n := c.Counters().Commits; n != 0 || c.Locks().ActiveTransactions() != 0 {
		t.Errorf("the reader heard %d commits and holds locks for %d transactions, want none", n, c.Locks().ActiveTransactions())
	}
	select {
	case <-landed:
		t.Error("Landed ran twice")
	default:
	}
}

// lostCommitDir votes yes and never hears the commit: the shape of a
// commit round whose call is lost after a unanimous vote.
type lostCommitDir struct {
	*rep.Rep
}

func (lostCommitDir) Commit(context.Context, lock.TxnID) error {
	return errors.New("commit lost")
}

// TestCommitSucceedsOnceEveryWriterVoted: once every writer has voted
// yes the transaction is committed, so a commit-round call that fails
// does not fail Commit — the caller would retry a write that took
// effect. The participant it missed stays in doubt, knowing the writer
// count its prepare carried, until Resolve commits it.
func TestCommitSucceedsOnceEveryWriterVoted(t *testing.T) {
	a, b := rep.New("A"), rep.New("B")
	tx := New(100)
	for _, d := range []rep.Directory{a, lostCommitDir{b}} {
		if err := d.Insert(ctx, tx.ID, keyspace.New("k"), 1, "v"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Join(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit after a unanimous vote = %v, want nil", err)
	}
	if st, _ := b.Status(ctx, tx.ID); st != rep.InDoubtOf(2) {
		t.Fatalf("B status = %v, want in doubt of 2 writers", st)
	}
	res, err := Resolve(ctx, tx.ID, []rep.Directory{a, b})
	if err != nil || !res.Committed || len(res.Finished) != 1 || res.Finished[0] != "B" {
		t.Fatalf("resolve = %+v, %v; want committed, finished at B", res, err)
	}
}

// lostAbortDir never hears an abort.
type lostAbortDir struct {
	*rep.Rep
}

func (lostAbortDir) Abort(context.Context, lock.TxnID) error {
	return errors.New("abort lost")
}

// TestReaderRefusalThenLostAbortResolvesToAbort: a transaction reads at
// C and writes at A and B. C restarted and lost its read lock, so it
// refuses the prepare, and the abort that follows reaches neither
// writer. The writers were never asked to prepare — the readers vote
// first — so Resolve aborts. Had the writers prepared beside the reader,
// both would be in doubt and Resolve would commit a transaction whose
// read locks were lost.
func TestReaderRefusalThenLostAbortResolvesToAbort(t *testing.T) {
	a, b, c := rep.New("A"), rep.New("B"), rep.New("C")
	tx := New(100)
	tx.JoinReader(c) // joined, but C has no record of the read: it restarted
	for _, r := range []*rep.Rep{a, b} {
		if err := r.Insert(ctx, tx.ID, keyspace.New("y"), 1, "v"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Join(lostAbortDir{r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(ctx); !errors.Is(err, rep.ErrUnknownTxn) {
		t.Fatalf("commit = %v, want the reader's abort vote", err)
	}
	for _, r := range []*rep.Rep{a, b} {
		if st, _ := r.Status(ctx, tx.ID); st != rep.StatusUnknown {
			t.Errorf("%s status = %v, want unknown: no writer may prepare before the reader votes", r.Name(), st)
		}
	}
	res, err := Resolve(ctx, tx.ID, []rep.Directory{a, b, c})
	if err != nil || res.Committed {
		t.Fatalf("resolve = %+v, %v; want aborted", res, err)
	}
}

// TestJoinRefusedOncePrepareWentOut: a prepare carries the writer count,
// so once one has gone out (Writers) no new writer may join — not a new
// participant, not a reader turned writer. A writer already counted, and
// a reader, still may.
func TestJoinRefusedOncePrepareWentOut(t *testing.T) {
	a, b, c := rep.New("A"), rep.New("B"), rep.New("C")
	tx := New(100)
	tx.JoinReader(c)
	if err := tx.Join(a); err != nil {
		t.Fatal(err)
	}
	if n := tx.Writers(); n != 1 {
		t.Fatalf("Writers = %d, want 1", n)
	}
	for _, d := range []*rep.Rep{b, c} {
		if err := tx.Join(d); !errors.Is(err, ErrSealed) {
			t.Errorf("Join(%s) after a prepare went out = %v, want ErrSealed", d.Name(), err)
		}
	}
	if err := tx.Join(a); err != nil {
		t.Errorf("Join of a counted writer = %v, want nil", err)
	}
	tx.JoinReader(b)
	if err := tx.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if got := b.Counters().Aborts + c.Counters().Aborts; got != 2 {
		t.Errorf("the readers heard %d aborts, want 2", got)
	}
	if err := tx.Join(b); !errors.Is(err, ErrFinished) {
		t.Errorf("Join after Abort = %v, want ErrFinished", err)
	}
}
