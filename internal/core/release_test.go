package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// The tests in this file hold a read-only operation's release round to
// what Suite.run promises: it is sent when it always was, to everyone it
// always was, and the caller does not wait for it — yet nothing the
// operation owned is reused before it has landed.

// abortGate holds the Aborts sent to one member, in the manner of
// waltest.File's Sync: each announces itself on Entered, waits for a
// value from Release, then sleeps for Delay. Leave a channel nil to skip
// its step; close Release to let every later Abort through. Then, as a
// transport client does, it refuses a context that is done.
type abortGate struct {
	rep.Directory
	Entered chan struct{}
	Release chan struct{}
	Delay   time.Duration
}

func (g *abortGate) Abort(ctx context.Context, id lock.TxnID) error {
	if g.Entered != nil {
		g.Entered <- struct{}{}
	}
	if g.Release != nil {
		<-g.Release
	}
	time.Sleep(g.Delay)
	if err := ctx.Err(); err != nil {
		return err
	}
	return g.Directory.Abort(ctx, id)
}

// quiet checks that after a Drain no representative holds a lock or
// remembers a transaction.
func quiet(t *testing.T, s *Suite, reps []*rep.Rep) {
	t.Helper()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		if n := r.Locks().ActiveTransactions(); n != 0 {
			t.Errorf("%s: %d transactions hold locks after Drain", r.Name(), n)
		}
		if st := r.Strays(); len(st) != 0 {
			t.Errorf("%s: stray transactions %v after Drain", r.Name(), st)
		}
	}
}

// TestWriteRightAfterScan: a caller that scans and at once updates or
// deletes a key it scanned finds its own scan's read locks still held,
// for the scan's aborts take a while to arrive. Wait-die sorts that out —
// the younger write dies and retries until the release has landed — and
// every operation succeeds.
func TestWriteRightAfterScan(t *testing.T) {
	ctx := context.Background()
	reps := make([]*rep.Rep, 3)
	dirs := make([]rep.Directory, 3)
	for i, name := range []string{"A", "B", "C"} {
		reps[i] = rep.New(name)
		dirs[i] = &abortGate{Directory: transport.NewLocal(reps[i]), Delay: time.Millisecond}
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	s, err := NewSuite(cfg, WithSelector(quorum.NewRandomSelector(cfg, 1)), WithParallelQuorum(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("k%02d", i), "v0"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		page, err := s.Scan(ctx, fmt.Sprintf("k%02d", 4*i), 3)
		if err != nil || len(page) != 3 {
			t.Fatalf("scan %d: %v, %v", i, page, err)
		}
		if err := s.Update(ctx, page[0].Key, "v1"); err != nil {
			t.Fatalf("update of %s right after scanning it: %v", page[0].Key, err)
		}
		if err := s.Delete(ctx, page[2].Key); err != nil {
			t.Fatalf("delete of %s right after scanning it: %v", page[2].Key, err)
		}
	}
	if s.Stats().Dies == 0 {
		t.Error("no write met a scan's locks; the test needs the release to arrive late")
	}
	quiet(t, s, reps)
}

// TestCloseWaitsForRelease: a process that scans and closes its suite at
// once, as a one-shot client does before it exits, leaves no read lock
// behind: Close returns only after the scan's release round has landed
// at every member it read.
func TestCloseWaitsForRelease(t *testing.T) {
	ctx := context.Background()
	reps := make([]*rep.Rep, 3)
	dirs := make([]rep.Directory, 3)
	for i, name := range []string{"A", "B", "C"} {
		reps[i] = rep.New(name)
		dirs[i] = &abortGate{Directory: transport.NewLocal(reps[i]), Delay: 5 * time.Millisecond}
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	s, err := NewSuite(cfg, WithSelector(quorum.NewRandomSelector(cfg, 1)), WithParallelQuorum(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("k%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if page, err := s.Scan(ctx, "", 10); err != nil || len(page) != 10 {
		t.Fatalf("scan: %v, %v", page, err)
	}
	if n := s.releasing.Load(); n != 1 {
		t.Fatalf("%d releases in flight after the scan, want its one", n)
	}
	s.Close()
	for _, r := range reps {
		if n := r.Locks().ActiveTransactions(); n != 0 {
			t.Errorf("%s: %d transactions hold locks after Close", r.Name(), n)
		}
	}
}

// TestDeadAttemptReleasesBeforeRetry: a read-only attempt that dies is
// aborted inline, so the retry never meets its own earlier attempt's
// locks. An older writer holds a key at A; the scan, reading at A and B,
// dies there until the writer lets go. Every dead attempt's aborts are
// answered before the next attempt sends anything.
func TestDeadAttemptReleasesBeforeRetry(t *testing.T) {
	ctx := context.Background()
	ts := newTapedSuite(t, false, 1, fixedSelector([]int{0, 1}, []int{0, 1}), WithParallelQuorum(true))
	for i := 0; i < 10; i++ {
		if err := ts.suite.Insert(ctx, fmt.Sprintf("k%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	const holder = lock.TxnID(1) // older than every ID the suite hands out
	if err := ts.reps[0].Insert(ctx, holder, keyspace.New("k05"), 9, "held"); err != nil {
		t.Fatal(err)
	}
	go func() {
		for ts.suite.Stats().Dies < 3 {
			time.Sleep(50 * time.Microsecond)
		}
		if err := ts.reps[0].Abort(ctx, holder); err != nil {
			t.Error(err)
		}
	}()
	ts.tape.take()
	page, err := ts.suite.Scan(ctx, "", 10)
	if err != nil || len(page) != 10 || page[5] != (KV{"k05", "v"}) {
		t.Fatalf("scan behind the writer: %v, %v", page, err)
	}
	if err := ts.suite.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	calls := ts.tape.take()
	if dies := ts.suite.Stats().Dies; dies < 3 {
		t.Fatalf("%d dies, want the scan to have died at least 3 times", dies)
	}
	// Group the calls by attempt, in the order the attempts were made.
	var order []lock.TxnID
	byTxn := map[lock.TxnID][]tapedCall{}
	for _, c := range calls {
		if _, seen := byTxn[c.txn]; !seen {
			order = append(order, c.txn)
		}
		byTxn[c.txn] = append(byTxn[c.txn], c)
	}
	for i := 0; i+1 < len(order); i++ {
		released := 0
		for _, c := range byTxn[order[i]] {
			if c.kind == "abort" {
				released = max(released, c.end)
			}
		}
		if count(byTxn[order[i]], "abort") != 2 {
			t.Fatalf("attempt %d sent %v, want its 2 aborts", i, kinds(byTxn[order[i]]))
		}
		if next := byTxn[order[i+1]][0]; next.start < released {
			t.Errorf("attempt %d's %s@%s began at tick %d, before attempt %d had been released at %d",
				i+1, next.kind, next.member, next.start, i, released)
		}
	}
	ts.idle(t, "after the scan")
}

// TestReleaseOutlivesCancel: nearly every caller cancels its context as
// soon as the operation returns. The release round does not run under
// that context, so it reaches each participant exactly once — no call
// fails for the cancellation and is sent again — yet it keeps what the
// context carries: here the configuration epoch, set by the caller.
func TestReleaseOutlivesCancel(t *testing.T) {
	tp := &tape{}
	release := make(chan struct{})
	reps := make([]*rep.Rep, 3)
	dirs := make([]rep.Directory, 3)
	for i, name := range []string{"A", "B", "C"} {
		reps[i] = rep.New(name)
		dirs[i] = &abortGate{Directory: transport.NewLocal(&tapedDir{inner: reps[i], t: tp}), Release: release}
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	s, err := NewSuite(cfg, WithSelector(quorum.NewRandomSelector(cfg, 1)), WithParallelQuorum(true))
	if err != nil {
		t.Fatal(err)
	}
	const epoch = 7
	for i := 0; i < 20; i++ {
		if err := s.Insert(rep.WithEpoch(context.Background(), epoch), fmt.Sprintf("k%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		tp.take()
		ctx, cancel := context.WithCancel(rep.WithEpoch(context.Background(), epoch))
		if _, err := s.Scan(ctx, "", 10); err != nil {
			t.Fatal(err)
		}
		cancel() // before any abort has been let through
		release <- struct{}{}
		release <- struct{}{}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		calls := tp.take()
		readers := membersOf(calls, "neighbor")
		if got := count(calls, "abort"); got != 2 || !equalStrings(membersOf(calls, "abort"), readers) {
			t.Fatalf("scan %d: calls %v; want one abort at each of the readers %v", i, kinds(calls), readers)
		}
		for _, c := range calls {
			if c.kind == "abort" && c.epoch != epoch {
				t.Errorf("scan %d: abort at %s carried epoch %d, want %d", i, c.member, c.epoch, epoch)
			}
		}
	}
	close(release)
	quiet(t, s, reps)
}

func equalStrings(a, b []string) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// TestTxHeldUntilReleaseLands gates A's Aborts and scans through A and
// B: the scan returns, its release is stuck at A, and the suite runs
// other operations meanwhile. None of them may run in the scan's Tx, and
// the page the scan returned must stay what it was (under -race, any
// sharing is a report). Once A lets the abort through, the Tx comes back.
func TestTxHeldUntilReleaseLands(t *testing.T) {
	ctx := context.Background()
	reps := make([]*rep.Rep, 3)
	dirs := make([]rep.Directory, 3)
	gate := &abortGate{Entered: make(chan struct{}, 1), Release: make(chan struct{})}
	for i, name := range []string{"A", "B", "C"} {
		reps[i] = rep.New(name)
		dirs[i] = transport.NewLocal(reps[i])
	}
	gate.Directory, dirs[0] = dirs[0], gate
	cfg := quorum.NewUniform(dirs, 2, 2)
	s, err := NewSuite(cfg, WithSelector(fixedSelector([]int{0, 1}, []int{0, 1})(cfg)), WithParallelQuorum(true))
	if err != nil {
		t.Fatal(err)
	}
	// The scan read-locks up to a09 at A; nothing below touches that.
	for i := 0; i < 20; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("a%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	page, err := s.Scan(ctx, "", 10)
	if err != nil || len(page) != 10 {
		t.Fatalf("scan: %v, %v", page, err)
	}
	want := fmt.Sprint(page)
	<-gate.Entered
	if n := s.releasing.Load(); n != 1 {
		t.Fatalf("%d releases in flight, want the scan's", n)
	}
	// Writes and reads beyond the scanned range, in other memory.
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("z%02d", i)
		if err := s.Insert(ctx, key, "v"); err != nil {
			t.Fatal(err)
		}
		if err := s.Update(ctx, key, "v2"); err != nil {
			t.Fatal(err)
		}
		if v, found, err := s.Lookup(ctx, key); err != nil || !found || v != "v2" {
			t.Fatalf("lookup %s = %q, %v, %v", key, v, found, err)
		}
		if i%2 == 1 {
			if err := s.Delete(ctx, key); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.idleMu.Lock()
	before := map[*Tx]bool{}
	for _, tx := range s.idle {
		before[tx] = true
	}
	s.idleMu.Unlock()
	if got := fmt.Sprint(page); got != want {
		t.Fatalf("the scan's page changed under later operations: %s, was %s", got, want)
	}
	close(gate.Release)
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	s.idleMu.Lock()
	back := 0
	for _, tx := range s.idle {
		if !before[tx] {
			back++
		}
	}
	s.idleMu.Unlock()
	if back != 1 {
		t.Errorf("%d Txs came back when the release landed, want the scan's one", back)
	}
	quiet(t, s, reps)
}
