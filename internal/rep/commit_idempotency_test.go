package rep

import (
	"errors"
	"testing"

	"repdir/internal/lock"
	"repdir/internal/wal"
)

// TestOneShotCommitRecordsOutcome: a Commit without a prior Prepare
// (one-shot commit) must record the transaction's outcome, so duplicate
// deliveries under the same transaction ID are answered from the
// outcome table instead of silently seeding fresh transaction state.
func TestOneShotCommitRecordsOutcome(t *testing.T) {
	r := New("A")
	id := lock.TxnID(7)
	if err := r.Insert(ctx, id, k("a"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, id); err != nil {
		t.Fatal(err)
	}

	// A duplicate re-delivery of the operation under the decided ID must
	// be bounced, not applied as a fresh transaction.
	if err := r.Insert(ctx, id, k("a"), 2, "v2"); !errors.Is(err, ErrTxnDecided) {
		t.Fatalf("duplicate insert after one-shot commit = %v, want ErrTxnDecided", err)
	}
	// A duplicate Commit is idempotent.
	if err := r.Commit(ctx, id); err != nil {
		t.Fatalf("re-commit = %v, want nil", err)
	}
	// An Abort racing in after the decision reports the conflict.
	if err := r.Abort(ctx, id); !errors.Is(err, ErrTxnDecided) {
		t.Fatalf("abort after commit = %v, want ErrTxnDecided", err)
	}
	if got := r.Counters().Commits; got != 1 {
		t.Errorf("commits counter = %d, want 1 (duplicates must not count)", got)
	}

	// The lock the bounced insert re-acquired was swept by the
	// re-commit — a fresh transaction can operate on the key
	// immediately instead of hitting wait-die.
	if err := r.Insert(ctx, 10, k("a"), 2, "v2"); err != nil {
		t.Fatalf("fresh txn blocked after duplicate bounce: %v", err)
	}
	if err := r.Abort(ctx, 10); err != nil {
		t.Fatal(err)
	}
	// And the committed value survived the duplicates.
	res, err := r.Lookup(ctx, 9, k("a"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Value != "v" {
		t.Errorf("lookup after duplicates = %+v, want found v", res)
	}
}

// TestCommitUnknownTxnUncounted: committing a transaction this
// representative has no record of is a no-op and must not inflate the
// commit counter.
func TestCommitUnknownTxnUncounted(t *testing.T) {
	r := New("A")
	if err := r.Commit(ctx, 99); err != nil {
		t.Fatalf("commit of unknown txn = %v, want nil", err)
	}
	if got := r.Counters().Commits; got != 0 {
		t.Errorf("commits counter = %d, want 0", got)
	}
}

// flakyLog fails Append on demand, modeling a full or broken disk.
type flakyLog struct {
	wal.MemoryLog
	fail bool
}

func (l *flakyLog) Append(r wal.Record) error {
	if l.fail {
		return errors.New("disk full")
	}
	return l.MemoryLog.Append(r)
}

// TestInDoubtCommitLogFailureIsAtomic: committing an in-doubt
// transaction logs the commit record before installing the withheld
// effects. If the append fails, the store must be untouched and the
// transaction still in doubt, and a later retry must succeed.
func TestInDoubtCommitLogFailureIsAtomic(t *testing.T) {
	log := &wal.MemoryLog{}
	r1 := New("A", WithLog(log))
	id := lock.TxnID(5)
	if err := r1.Insert(ctx, id, k("a"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := r1.Prepare(MarkWriters(ctx, 1), id); err != nil {
		t.Fatal(err)
	}

	// Crash after prepare: rebuild from the log. The transaction comes
	// back in doubt, effects withheld.
	fl := &flakyLog{}
	for _, rec := range log.Records() {
		if err := fl.MemoryLog.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := Recover("A", log.Records(), WithLog(fl))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := r2.Status(ctx, id); st.Fate() != StatusInDoubt {
		t.Fatalf("status after recovery = %v, want in-doubt", st)
	}
	before := len(r2.Dump())

	fl.fail = true
	if err := r2.Commit(ctx, id); err == nil {
		t.Fatal("commit with failing log should error")
	}
	if got := len(r2.Dump()); got != before {
		t.Errorf("store mutated by failed commit: %d entries, want %d", got, before)
	}
	if st, _ := r2.Status(ctx, id); st.Fate() != StatusInDoubt {
		t.Errorf("status after failed commit = %v, want still in-doubt", st)
	}
	if got := r2.Counters().Commits; got != 0 {
		t.Errorf("commits counter = %d after failed commit, want 0", got)
	}

	// Retry once the log heals: effects installed, outcome recorded.
	fl.fail = false
	if err := r2.Commit(ctx, id); err != nil {
		t.Fatalf("retried commit = %v", err)
	}
	res, err := r2.Lookup(ctx, 11, k("a"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Value != "v" {
		t.Errorf("lookup after retried commit = %+v, want found v", res)
	}
	if st, _ := r2.Status(ctx, id); st != StatusCommitted {
		t.Errorf("status = %v, want committed", st)
	}
}
