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
	"repdir/internal/txn"
)

// The tests in this file hold the round an operation sends after
// returning — a read-only operation's release, a point write's commit —
// to what Suite.run promises: it is sent when it always was, to everyone
// it always was, and the caller does not wait for it — yet nothing the
// operation owned is reused before it has landed.

// decisionGate holds the Aborts sent to one member, or with Commits set
// the Commits, in the manner of waltest.File's Sync: each announces
// itself on Entered, waits for a value from Release, then sleeps for
// Delay. Leave a channel nil to skip its step; close Release to let every
// later call through. Then, as a transport client does, it refuses a
// context that is done.
type decisionGate struct {
	rep.Directory
	Commits bool
	Entered chan struct{}
	Release chan struct{}
	Delay   time.Duration
}

func (g *decisionGate) Abort(ctx context.Context, id lock.TxnID) error {
	if err := g.hold(ctx, !g.Commits); err != nil {
		return err
	}
	return g.Directory.Abort(ctx, id)
}

func (g *decisionGate) Commit(ctx context.Context, id lock.TxnID) error {
	if err := g.hold(ctx, g.Commits); err != nil {
		return err
	}
	return g.Directory.Commit(ctx, id)
}

func (g *decisionGate) hold(ctx context.Context, on bool) error {
	if !on {
		return nil
	}
	if g.Entered != nil {
		g.Entered <- struct{}{}
	}
	if g.Release != nil {
		<-g.Release
	}
	time.Sleep(g.Delay)
	return ctx.Err()
}

// quiet checks that after a Drain no representative holds anything.
func quiet(t *testing.T, s *Suite, reps []*rep.Rep) {
	t.Helper()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	holdNothing(t, reps, "after Drain")
}

// holdNothing checks that no representative holds a lock, remembers a
// transaction or is in doubt about one. A transaction is known at a
// representative only while it holds a lock there (rep.Rep.join), so
// one that holds none remembers none.
func holdNothing(t *testing.T, reps []*rep.Rep, when string) {
	t.Helper()
	for _, r := range reps {
		if n := r.Locks().ActiveTransactions(); n != 0 {
			t.Errorf("%s: %d transactions hold locks %s", r.Name(), n, when)
		}
		if st := r.InDoubt(); len(st) != 0 {
			t.Errorf("%s: in doubt about %v %s", r.Name(), st, when)
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
		dirs[i] = &decisionGate{Directory: transport.NewLocal(reps[i]), Delay: time.Millisecond}
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
		dirs[i] = &decisionGate{Directory: transport.NewLocal(reps[i]), Delay: 5 * time.Millisecond}
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
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if page, err := s.Scan(ctx, "", 10); err != nil || len(page) != 10 {
		t.Fatalf("scan: %v, %v", page, err)
	}
	if n := s.releasing.Load(); n != 1 {
		t.Fatalf("%d releases in flight after the scan, want its one", n)
	}
	s.Close()
	holdNothing(t, reps, "after Close")
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
	if err := ts.suite.Drain(ctx); err != nil {
		t.Fatal(err)
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
		dirs[i] = &decisionGate{Directory: transport.NewLocal(&tapedDir{inner: reps[i], t: tp}), Release: release}
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
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
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
	gate := &decisionGate{Entered: make(chan struct{}, 1), Release: make(chan struct{})}
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
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
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
	// Writes and reads beyond the scanned range, in other memory. Each
	// waits for the commit round of the write before it to land: every
	// abort at A is held, so an attempt that met those locks and died
	// could not let go of A.
	settle := func() {
		for s.releasing.Load() > 1 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("z%02d", i)
		if err := s.Insert(ctx, key, "v"); err != nil {
			t.Fatal(err)
		}
		settle()
		if err := s.Update(ctx, key, "v2"); err != nil {
			t.Fatal(err)
		}
		settle()
		if v, found, err := s.Lookup(ctx, key); err != nil || !found || v != "v2" {
			t.Fatalf("lookup %s = %q, %v, %v", key, v, found, err)
		}
		if i%2 == 1 {
			if err := s.Delete(ctx, key); err != nil {
				t.Fatal(err)
			}
			settle()
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

// TestLookupAfterWriteReturns: a point write returns at its commit
// point, before its commit round has landed. A's Commits are held, so
// Update returns while A still holds the key's write lock, prepared. A
// Lookup begun after that reads at A and at C, which never saw the write:
// it must not answer while A holds the lock — C's old version would win
// if A's lock were gone and its store not yet written — and must answer
// with the new value once the commit is let through.
func TestLookupAfterWriteReturns(t *testing.T) {
	ctx := context.Background()
	reps := make([]*rep.Rep, 3)
	dirs := make([]rep.Directory, 3)
	for i, name := range []string{"A", "B", "C"} {
		reps[i] = rep.New(name)
		dirs[i] = transport.NewLocal(reps[i])
	}
	gate := &decisionGate{Directory: dirs[0], Commits: true}
	dirs[0] = gate
	cfg := quorum.NewUniform(dirs, 2, 2)
	ids := txn.NewIDSource(1) // one age order: the reader is younger than the writer
	newSuite := func(members []int) *Suite {
		s, err := NewSuite(cfg, WithSelector(fixedSelector(members, members)(cfg)), WithParallelQuorum(true), WithIDSource(ids))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	writer, reader := newSuite([]int{0, 1}), newSuite([]int{0, 2})
	if err := reader.Insert(ctx, "k", "v1"); err != nil {
		t.Fatal(err)
	}
	reader.Close()
	gate.Entered, gate.Release = make(chan struct{}, 1), make(chan struct{})

	wrote := make(chan error, 1)
	go func() { wrote <- writer.Update(ctx, "k", "v2") }()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Update waited for its commit round")
	}
	<-gate.Entered
	read := make(chan string, 1)
	go func() {
		v, _, err := reader.Lookup(ctx, "k")
		if err != nil {
			t.Error(err)
		}
		read <- v
	}()
	for reader.Stats().Dies < 3 {
		select {
		case v := <-read:
			t.Fatalf("a Lookup begun after the Update returned answered %q while A held the write's commit", v)
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	close(gate.Release)
	if v := <-read; v != "v2" {
		t.Fatalf("Lookup after the commit landed = %q, want v2", v)
	}
	quiet(t, writer, reps)
}

// TestCloseWaitsForCommit: a process that writes and closes its suite at
// once, as a one-shot client does before it exits, leaves nothing behind:
// Close returns only after the write's commit round has landed, so no
// member holds a lock, remembers the transaction or is in doubt about it.
func TestCloseWaitsForCommit(t *testing.T) {
	ctx := context.Background()
	reps := make([]*rep.Rep, 3)
	dirs := make([]rep.Directory, 3)
	for i, name := range []string{"A", "B", "C"} {
		reps[i] = rep.New(name)
		dirs[i] = &decisionGate{Directory: transport.NewLocal(reps[i]), Commits: true, Delay: 5 * time.Millisecond}
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	s, err := NewSuite(cfg, WithSelector(quorum.NewRandomSelector(cfg, 1)), WithParallelQuorum(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(ctx, "k", "v2"); err != nil {
		t.Fatal(err)
	}
	if n := s.releasing.Load(); n != 1 {
		t.Fatalf("%d rounds in flight after the update, want its commit round", n)
	}
	s.Close()
	holdNothing(t, reps, "after Close")
}

// TestWriteRightAfterWrite: a caller that writes a key and at once writes
// it again finds its first write's locks still held wherever the commit
// round has not landed. The second write dies and retries — a few times,
// not the suite's whole budget — until it has, and then builds on the
// first: it installs the next version.
func TestWriteRightAfterWrite(t *testing.T) {
	ctx := context.Background()
	reps := make([]*rep.Rep, 3)
	dirs := make([]rep.Directory, 3)
	for i, name := range []string{"A", "B", "C"} {
		reps[i] = rep.New(name)
		dirs[i] = &decisionGate{Directory: transport.NewLocal(reps[i]), Commits: true, Delay: time.Millisecond}
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	s, err := NewSuite(cfg, WithSelector(quorum.NewRandomSelector(cfg, 1)), WithParallelQuorum(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	const mostDies = 32
	for i := 0; i < 20; i++ {
		first, err := s.UpdateV(ctx, "k", "a")
		if err != nil {
			t.Fatal(err)
		}
		dies := s.Stats().Dies
		second, err := s.UpdateV(ctx, "k", "b")
		if err != nil {
			t.Fatalf("update right after an update: %v", err)
		}
		if second != first.Next() {
			t.Fatalf("update right after the one that installed version %d installed %d, want %d", first, second, first.Next())
		}
		if d := s.Stats().Dies - dies; d > mostDies {
			t.Errorf("update right after an update died %d times, want at most %d", d, mostDies)
		}
	}
	if s.Stats().Dies == 0 {
		t.Error("no write met the last one's locks; the test needs the commit to arrive late")
	}
	quiet(t, s, reps)
}

// TestUpdateOverWireAllocs pins a point write over the wire, commit round
// included: a parallel-quorum Update over transport.Serve/Dial, and the
// Drain that waits for its commit round to land. The round it sends after
// returning runs under the transaction's own context, which every call
// waits on over the wire; that context keeps its channel and timer from
// one round to the next, so the round costs no more than the same
// Update's commit round did when its caller waited for it. The suite
// knows the key's version, so the Update sends no read: two rounds, not
// three. Measured 4, with its concurrent calls on parked workers
// (package legs); 5 when each had a goroutine of its own, 8 when the
// Update also read.
func TestUpdateOverWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dirs := make([]rep.Directory, 3)
	for i, name := range []string{"A", "B", "C"} {
		srv, err := transport.Serve(rep.New(name), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := transport.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		dirs[i] = c
	}
	s, err := NewSuite(quorum.NewUniform(dirs, 2, 2), WithParallelQuorum(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	update := func() {
		if err := s.Update(ctx, "k", "v"); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		update() // pools, maps and buffers reach their working size
	}
	const most = 4
	if n := testing.AllocsPerRun(500, update); n > most {
		t.Errorf("one Update over the wire allocates %.0f times, commit round included; want at most %d", n, most)
	} else {
		t.Logf("one Update over the wire: %.0f allocations", n)
	}
}

// TestDeleteAllocs pins what a point Delete allocates in process, the
// lan-churn benchmark's deployment: one suite over three members, a
// sequential quorum, no log. Delete runs DeleteV and drops the version,
// whose closure does not escape: 10 allocations, one of them the key's
// name, as when Delete ran its transaction itself.
func TestDeleteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ctx := context.Background()
	dirs := make([]rep.Directory, 3)
	for i, name := range []string{"A", "B", "C"} {
		dirs[i] = transport.NewLocal(rep.New(name))
	}
	s, err := NewSuite(quorum.NewUniform(dirs, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	const runs, warm = 300, 50
	for i := 0; i < runs+warm+1; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("k%04d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	del := func() {
		if err := s.Delete(ctx, fmt.Sprintf("k%04d", next)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < warm; i++ {
		del() // pools, maps and buffers reach their working size
	}
	const most = 10
	if n := testing.AllocsPerRun(runs, del); n > most {
		t.Errorf("one Delete allocates %.1f times, its key's name included; want at most %d", n, most)
	} else {
		t.Logf("one Delete: %.1f allocations", n)
	}
}
