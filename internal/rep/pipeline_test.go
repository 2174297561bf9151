package rep

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repdir/internal/lock"
	"repdir/internal/wal"
	"repdir/internal/wal/waltest"
)

// parkedCommit is a representative whose transaction parkedTxn has
// overwritten key "a" ("old" -> "new") and whose one-shot Commit is
// inside the log file's Sync — forcing the prepare it writes first —
// where it stays until open is called.
type parkedCommit struct {
	r    *Rep
	log  *wal.FileLog
	file *waltest.File
	done <-chan error // the parked Commit's result
	once sync.Once
}

const parkedTxn = lock.TxnID(20)

func parkCommit(t *testing.T) *parkedCommit {
	t.Helper()
	f := &waltest.File{}
	l := wal.NewFileLog(f)
	r := New("A", WithLog(l))
	mustInsert(t, r, 1, "a", 1, "old")
	mustInsert(t, r, 2, "b", 1, "other")

	f.Entered, f.Release = make(chan struct{}, 16), make(chan struct{})
	if err := r.Insert(ctx, parkedTxn, k("a"), 2, "new"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Commit(ctx, parkedTxn) }()
	<-f.Entered
	p := &parkedCommit{r: r, log: l, file: f, done: done}
	t.Cleanup(p.open)
	return p
}

// open lets the parked Sync, and every later one, through.
func (p *parkedCommit) open() { p.once.Do(func() { close(p.file.Release) }) }

// TestLookupElsewhereRunsDuringCommitSync: an fsync holds up the
// transaction that asked for it, not the representative.
func TestLookupElsewhereRunsDuringCommitSync(t *testing.T) {
	p := parkCommit(t)
	type reply struct {
		res LookupResult
		err error
	}
	got := make(chan reply, 1)
	go func() {
		res, err := p.r.Lookup(ctx, 30, k("b"))
		got <- reply{res, err}
	}()
	select {
	case g := <-got:
		if g.err != nil || !g.res.Found || g.res.Value != "other" {
			t.Fatalf("lookup(b) during commit sync = %+v, %v", g.res, g.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lookup of an unrelated key waited for another transaction's fsync")
	}
	if err := p.r.Commit(ctx, 30); err != nil {
		t.Fatal(err)
	}
	p.open()
	if err := <-p.done; err != nil {
		t.Fatal(err)
	}
}

// TestLookupOfCommittingKeyWaitsForDurability: the committing
// transaction keeps its range locks until its decision is on disk — a
// one-shot commit's is the prepare it forces first — and its commit
// record written, so a reader of its key sees nothing until then and the
// new value after.
func TestLookupOfCommittingKeyWaitsForDurability(t *testing.T) {
	p := parkCommit(t)
	waits := p.r.Locks().Stats().Waits
	got := make(chan LookupResult, 1)
	go func() {
		// Older than parkedTxn, so wait-die lets it wait.
		res, err := p.r.Lookup(ctx, 10, k("a"))
		if err != nil {
			t.Error(err)
		}
		got <- res
	}()
	for deadline := time.Now().Add(5 * time.Second); p.r.Locks().Stats().Waits == waits; {
		if time.Now().After(deadline) {
			t.Fatal("lookup(a) never reached the lock held by the committing transaction")
		}
		time.Sleep(50 * time.Microsecond)
	}
	select {
	case res := <-got:
		t.Fatalf("lookup(a) = %+v before the commit was durable", res)
	default:
	}
	p.open()
	if res := <-got; !res.Found || res.Value != "new" {
		t.Fatalf("lookup(a) after the commit = %+v, want new", res)
	}
	if err := <-p.done; err != nil {
		t.Fatal(err)
	}
}

// TestCallsUnderParkedTxnWaitForItsStep: a duplicate Commit, a late
// Abort and a late Insert under the ID of a transaction whose commit is
// waiting for the log all wait for it, then get the answers they get
// after any commit — and leave no second record behind.
func TestCallsUnderParkedTxnWaitForItsStep(t *testing.T) {
	p := parkCommit(t)
	calls := []struct {
		name string
		call func() error
		want error
	}{
		{"duplicate commit", func() error { return p.r.Commit(ctx, parkedTxn) }, nil},
		{"late abort", func() error { return p.r.Abort(ctx, parkedTxn) }, ErrTxnDecided},
		{"late insert", func() error { return p.r.Insert(ctx, parkedTxn, k("a"), 3, "late") }, ErrTxnDecided},
	}
	results := make([]chan error, len(calls))
	for i, c := range calls {
		results[i] = make(chan error, 1)
		go func(i int, call func() error) { results[i] <- call() }(i, c.call)
	}
	// Nothing to wait on marks "blocked in settled"; the pause only gives
	// a call that wrongly does not wait the time to show it.
	time.Sleep(20 * time.Millisecond)
	for i, c := range calls {
		select {
		case err := <-results[i]:
			t.Fatalf("%s returned %v while the commit was still waiting for the log", c.name, err)
		default:
		}
	}
	p.open()
	if err := <-p.done; err != nil {
		t.Fatal(err)
	}
	for i, c := range calls {
		if err := <-results[i]; !errors.Is(err, c.want) {
			t.Errorf("%s = %v, want %v", c.name, err, c.want)
		}
	}
	// The late insert may have re-taken a lock after the commit let go;
	// a re-commit sweeps it, as it does for any bounced duplicate.
	if err := p.r.Commit(ctx, parkedTxn); err != nil {
		t.Fatal(err)
	}
	if res, err := p.r.Lookup(ctx, 40, k("a")); err != nil || res.Value != "new" {
		t.Fatalf("lookup(a) = %+v, %v; want new", res, err)
	}
	// A one-shot commit logs its prepare, then its commit.
	var prepares, commits, others int
	for _, rec := range fileRecords(t, p.file) {
		switch {
		case rec.Txn != uint64(parkedTxn):
		case rec.Kind == wal.KindPrepare:
			prepares++
		case rec.Kind == wal.KindCommit:
			commits++
		case rec.Kind != wal.KindInsert:
			others++
		}
	}
	if prepares != 1 || commits != 1 || others != 0 {
		t.Errorf("log holds %d prepare, %d commit and %d other markers for the transaction, want 1, 1 and 0", prepares, commits, others)
	}
}

// fileRecords decodes what a log wrote to f.
func fileRecords(t *testing.T, f *waltest.File) []wal.Record {
	t.Helper()
	path := filepath.Join(t.TempDir(), "copy.wal")
	if err := os.WriteFile(path, f.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	records := readLog(t, path)
	return records
}

// TestCheckpointBusyDuringCommitSync: a transaction whose commit is
// still waiting for the log is in flight, so no checkpoint is cut across
// it.
func TestCheckpointBusyDuringCommitSync(t *testing.T) {
	p := parkCommit(t)
	d := &Durability{rep: p.r, log: p.log, walPath: filepath.Join(t.TempDir(), "rep.wal")}
	if err := d.Checkpoint(); !errors.Is(err, ErrBusy) {
		t.Fatalf("checkpoint during commit sync = %v, want ErrBusy", err)
	}
	p.open()
	if err := <-p.done; err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the commit: %v", err)
	}
}

// TestFailedSyncLeavesCommitRetryable: a commit whose fsync fails is not
// acknowledged and not decided; its effects stay in the store behind its
// locks, as after a failed append, and a retry commits it.
func TestFailedSyncLeavesCommitRetryable(t *testing.T) {
	f := &waltest.File{}
	r := New("A", WithLog(wal.NewFileLog(f)))
	boom := errors.New("boom")
	if err := r.Insert(ctx, 5, k("a"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	f.FailSync(boom)
	if err := r.Commit(ctx, 5); !errors.Is(err, boom) {
		t.Fatalf("commit over a failing fsync = %v, want the sync error", err)
	}
	if st, _ := r.Status(ctx, 5); st != StatusUnknown {
		t.Errorf("status after failed commit = %v, want unknown (undecided)", st)
	}
	if held, active := r.Locks().HeldBy(5), r.Locks().ActiveTransactions(); held != 1 || active != 1 {
		t.Errorf("after failed commit txn 5 holds %d locks of %d transactions, want its one lock alone", held, active)
	}
	if got := r.Counters().Commits; got != 0 {
		t.Errorf("commits counter = %d after failed commit, want 0", got)
	}
	// Still locked: a younger reader dies instead of seeing the value.
	if _, err := r.Lookup(ctx, 6, k("a")); !errors.Is(err, lock.ErrDie) {
		t.Errorf("lookup behind the failed commit = %v, want ErrDie", err)
	}
	r.Abort(ctx, 6)

	if err := r.Commit(ctx, 5); err != nil {
		t.Fatalf("retried commit = %v", err)
	}
	if res, err := r.Lookup(ctx, 7, k("a")); err != nil || !res.Found || res.Value != "v" {
		t.Errorf("lookup after retried commit = %+v, %v; want found v", res, err)
	}
}

// TestAbortAfterFailedPrepareIsLogged: a prepare whose fsync failed was
// refused, but its record was written and may reach the disk all the
// same. The abort that follows is logged too, so the log never holds a
// prepare alone: a restart finds the transaction aborted, not in doubt —
// where, every writer having prepared, it would resolve to commit.
func TestAbortAfterFailedPrepareIsLogged(t *testing.T) {
	f := &waltest.File{}
	r := New("A", WithLog(wal.NewFileLog(f)))
	boom := errors.New("boom")
	if err := r.Insert(ctx, 5, k("a"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	f.FailSync(boom)
	if err := r.Prepare(MarkWriters(ctx, 2), 5); !errors.Is(err, boom) {
		t.Fatalf("prepare over a failing fsync = %v, want the sync error", err)
	}
	if err := r.Abort(ctx, 5); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover("A", fileRecords(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := r2.Status(ctx, 5); st != StatusAborted {
		t.Fatalf("status after restart = %v, want aborted", st)
	}
}
