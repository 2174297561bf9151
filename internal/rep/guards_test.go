package rep

import (
	"errors"
	"testing"

	"repdir/internal/lock"
	"repdir/internal/wal"
)

func TestPrepareUnknownTxnVotesAbort(t *testing.T) {
	r := New("A")
	if err := r.Prepare(ctx, 12345); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("prepare of unknown txn = %v, want ErrUnknownTxn", err)
	}
}

func TestReadOnlyParticipantCanPrepare(t *testing.T) {
	// A read registers the transaction, so a read-only participant can
	// vote yes in two-phase commit.
	r := New("A")
	if _, err := r.Lookup(ctx, 7, k("anything")); err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(ctx, 7); err != nil {
		t.Fatalf("read-only prepare = %v", err)
	}
	if err := r.Commit(ctx, 7); err != nil {
		t.Fatal(err)
	}
}

func TestCrashedParticipantRefusesAmnesiacPrepare(t *testing.T) {
	// The amnesia scenario: a transaction operates at a replica, the
	// replica crashes (volatile state lost) and recovers from its log;
	// the coordinator's prepare must be refused, not silently accepted.
	var log wal.MemoryLog
	r := New("A", WithLog(&log))
	if err := r.Insert(ctx, 42, k("x"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	// Crash before prepare: rebuild from the log.
	r2, err := Recover("A", log.Records())
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Prepare(ctx, 42); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("amnesiac prepare = %v, want ErrUnknownTxn", err)
	}
	// And the lost write really is lost (never acknowledged).
	res, err := r2.Lookup(ctx, 43, k("x"))
	if err != nil || res.Found {
		t.Fatalf("lost write resurfaced: %+v %v", res, err)
	}
	r2.Abort(ctx, 43)
}

func TestDecidedTxnGuards(t *testing.T) {
	r := New("A")
	// Prepare + abort a transaction: its ID is now decided (aborted).
	if err := r.Insert(ctx, 50, k("x"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(MarkWriters(ctx, 1), 50); err != nil {
		t.Fatal(err)
	}
	if err := r.Abort(ctx, 50); err != nil {
		t.Fatal(err)
	}

	if err := r.Insert(ctx, 50, k("y"), 1, "v"); !errors.Is(err, ErrTxnDecided) {
		t.Errorf("insert under aborted txn = %v, want ErrTxnDecided", err)
	}
	if _, err := r.Lookup(ctx, 50, k("y")); !errors.Is(err, ErrTxnDecided) {
		t.Errorf("lookup under aborted txn = %v, want ErrTxnDecided", err)
	}
	if err := r.Prepare(ctx, 50); !errors.Is(err, ErrTxnDecided) {
		t.Errorf("prepare under aborted txn = %v, want ErrTxnDecided", err)
	}
	if err := r.Commit(ctx, 50); !errors.Is(err, ErrTxnDecided) {
		t.Errorf("commit of aborted txn = %v, want ErrTxnDecided", err)
	}
	// Idempotent re-abort is fine.
	if err := r.Abort(ctx, 50); err != nil {
		t.Errorf("re-abort of aborted txn = %v, want nil", err)
	}

	// Prepare + commit: the mirror image.
	if err := r.Insert(ctx, 60, k("z"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(MarkWriters(ctx, 1), 60); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 60); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 60); err != nil {
		t.Errorf("re-commit of committed txn = %v, want nil (idempotent)", err)
	}
	if err := r.Abort(ctx, 60); !errors.Is(err, ErrTxnDecided) {
		t.Errorf("abort of committed txn = %v, want ErrTxnDecided", err)
	}
}

func TestOneShotCommitUndecidedIDsUnaffected(t *testing.T) {
	// Unprepared (one-shot) commits do not enter the outcomes map, so
	// plain commit/abort of unknown IDs stays a no-op — the release
	// semantics the rest of the system relies on.
	r := New("A")
	if err := r.Commit(ctx, 999); err != nil {
		t.Errorf("commit of unknown txn = %v, want nil", err)
	}
	if err := r.Abort(ctx, 998); err != nil {
		t.Errorf("abort of unknown txn = %v, want nil", err)
	}
	mustInsert(t, r, 100, "k", 1, "v")
	// The one-shot committed ID remains usable as "unknown" afterwards.
	if err := r.Commit(ctx, 100); err != nil {
		t.Errorf("re-commit of one-shot txn = %v, want nil", err)
	}
}

func TestAttemptIDsAreDistinctPerRetry(t *testing.T) {
	// This lives here to document the contract the guards rely on: two
	// attempts of one logical transaction never share an ID.
	seen := map[lock.TxnID]bool{}
	base := lock.TxnID(1 << 20)
	for attempt := 0; attempt < 256; attempt++ {
		id := base | lock.TxnID(attempt)
		if seen[id] {
			t.Fatalf("attempt %d collided", attempt)
		}
		seen[id] = true
	}
}
