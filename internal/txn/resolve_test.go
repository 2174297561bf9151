package txn

import (
	"errors"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/wal"
)

// crashRecover prepares (and optionally commits) a transaction with
// writers writers at a WAL-backed representative, then "crashes" it by
// recovering a fresh instance from the log.
func crashRecover(t *testing.T, name string, id lock.TxnID, key string, writers int, commit bool) *rep.Rep {
	t.Helper()
	var log wal.MemoryLog
	r := rep.New(name, rep.WithLog(&log))
	if err := r.Insert(ctx, id, keyspace.New(key), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(rep.MarkWriters(ctx, writers), id); err != nil {
		t.Fatal(err)
	}
	if commit {
		if err := r.Commit(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := rep.Recover(name, log.Records())
	if err != nil {
		t.Fatal(err)
	}
	return recovered
}

func TestResolveCommitsWhenAnyParticipantCommitted(t *testing.T) {
	// Coordinator crashed after committing at A but before reaching B.
	const id = lock.TxnID(7777)
	a := crashRecover(t, "A", id, "k", 2, true)
	b := crashRecover(t, "B", id, "k", 2, false)

	if st, _ := b.Status(ctx, id); st != rep.InDoubtOf(2) {
		t.Fatalf("B status = %v, want in doubt of 2 writers", st)
	}
	res, err := Resolve(ctx, id, []rep.Directory{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatal("resolution should commit (A committed)")
	}
	if len(res.Finished) != 1 || res.Finished[0] != "B" {
		t.Fatalf("finished = %v, want [B]", res.Finished)
	}
	// B now has the entry, consistent with A.
	for _, r := range []*rep.Rep{a, b} {
		look, err := r.Lookup(ctx, 9999, keyspace.New("k"))
		if err != nil || !look.Found {
			t.Errorf("%s lookup after resolution = %+v, %v", r.Name(), look, err)
		}
		r.Commit(ctx, 9999)
	}
	if st, _ := b.Status(ctx, id); st != rep.StatusCommitted {
		t.Errorf("B status after resolution = %v", st)
	}
}

func TestResolveCommitsWhenEveryWriterPrepared(t *testing.T) {
	// Coordinator crashed after prepares but before any commit: both
	// writers hold a forced prepare record, so the transaction committed.
	const id = lock.TxnID(8888)
	a := crashRecover(t, "A", id, "k", 2, false)
	b := crashRecover(t, "B", id, "k", 2, false)

	res, err := Resolve(ctx, id, []rep.Directory{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatal("resolution should commit (every writer prepared)")
	}
	if len(res.Finished) != 2 {
		t.Fatalf("finished = %v, want both", res.Finished)
	}
	for _, r := range []*rep.Rep{a, b} {
		look, err := r.Lookup(ctx, 9999, keyspace.New("k"))
		if err != nil || !look.Found {
			t.Errorf("%s should hold k after commit resolution: %+v %v", r.Name(), look, err)
		}
		r.Commit(ctx, 9999)
		if st, _ := r.Status(ctx, id); st != rep.StatusCommitted {
			t.Errorf("%s status = %v, want committed", r.Name(), st)
		}
	}
}

// TestResolveAbortsWhenAWriterNeverPrepared: the writer count is 2, A
// prepared, and B — which everyone can reach — knows nothing of the
// transaction. B never prepared and never will (it refuses a prepare of
// a transaction it does not know), so the transaction aborted.
func TestResolveAbortsWhenAWriterNeverPrepared(t *testing.T) {
	const id = lock.TxnID(4444)
	a := crashRecover(t, "A", id, "k", 2, false)
	b := rep.New("B")

	res, err := Resolve(ctx, id, []rep.Directory{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed || len(res.Finished) != 1 || res.Finished[0] != "A" {
		t.Fatalf("resolution = %+v, want aborted, finished at A", res)
	}
	if st, _ := a.Status(ctx, id); st != rep.StatusAborted {
		t.Errorf("A status = %v, want aborted", st)
	}
}

// TestResolveAbortsWhenAParticipantAborted: the coordinator's abort
// reached writer A, which logged it, and not writer B, which is still in
// doubt. The abort decides, though a third member is out of reach.
func TestResolveAbortsWhenAParticipantAborted(t *testing.T) {
	const id = lock.TxnID(3333)
	a := crashRecover(t, "A", id, "k", 2, false)
	if err := a.Abort(ctx, id); err != nil {
		t.Fatal(err)
	}
	b := crashRecover(t, "B", id, "k", 2, false)
	down := transport.NewLocal(rep.New("C"))
	down.Partition()

	res, err := Resolve(ctx, id, []rep.Directory{a, b, down})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed || len(res.Finished) != 1 || res.Finished[0] != "B" {
		t.Fatalf("resolution = %+v, want aborted, finished at B", res)
	}
	if look, err := b.Lookup(ctx, 9999, keyspace.New("k")); err != nil || look.Found {
		t.Errorf("B holds k after abort resolution: %+v %v", look, err)
	}
}

// TestResolveWaitsWhileAPrepareMayBeMissing: three writers, two of them
// prepared and reachable, the third out of reach. It may have prepared
// (commit) or not (abort), so nothing is decided, and the prepared
// members stay in doubt holding their locks.
func TestResolveWaitsWhileAPrepareMayBeMissing(t *testing.T) {
	const id = lock.TxnID(2222)
	a := crashRecover(t, "A", id, "k", 3, false)
	b := crashRecover(t, "B", id, "k", 3, false)
	down := transport.NewLocal(rep.New("C"))
	down.Partition()

	if _, err := Resolve(ctx, id, []rep.Directory{a, b, down}); !errors.Is(err, ErrUnresolvable) {
		t.Fatalf("resolve = %v, want ErrUnresolvable", err)
	}
	for _, r := range []*rep.Rep{a, b} {
		if st, _ := r.Status(ctx, id); st != rep.InDoubtOf(3) {
			t.Errorf("%s status = %v, want still in doubt of 3 writers", r.Name(), st)
		}
		if _, err := r.Lookup(ctx, id+1, keyspace.New("k")); !errors.Is(err, lock.ErrDie) {
			t.Errorf("%s: a younger lookup of k = %v, want ErrDie behind the in-doubt lock", r.Name(), err)
		}
		r.Abort(ctx, id+1)
	}
}

func TestResolveRefusesWithUnreachableParticipant(t *testing.T) {
	const id = lock.TxnID(9999)
	a := crashRecover(t, "A", id, "k", 2, false)
	down := transport.NewLocal(crashRecover(t, "B", id, "k", 2, false))
	down.Partition()

	_, err := Resolve(ctx, id, []rep.Directory{a, down})
	if !errors.Is(err, ErrUnresolvable) {
		t.Fatalf("resolve with unreachable participant = %v, want ErrUnresolvable", err)
	}
	// A must remain in doubt — no unilateral decision.
	if st, _ := a.Status(ctx, id); st.Fate() != rep.StatusInDoubt {
		t.Errorf("A status = %v, want still in-doubt", st)
	}

	// Once the unreachable participant returns, resolution proceeds.
	down.Heal()
	res, err := Resolve(ctx, id, []rep.Directory{a, down})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Error("should commit: every writer prepared")
	}
}

func TestResolveCommitUnblocksWaitingOperations(t *testing.T) {
	// The in-doubt transaction's lock blocks access to its key; after
	// resolution the key is reachable again.
	const id = lock.TxnID(5555)
	a := crashRecover(t, "A", id, "k", 2, true)
	b := crashRecover(t, "B", id, "k", 2, false)

	if _, err := b.Lookup(ctx, id+1, keyspace.New("k")); !errors.Is(err, lock.ErrDie) {
		t.Fatalf("lookup of in-doubt key = %v, want ErrDie", err)
	}
	b.Abort(ctx, id+1)

	if _, err := Resolve(ctx, id, []rep.Directory{a, b}); err != nil {
		t.Fatal(err)
	}
	look, err := b.Lookup(ctx, id+2, keyspace.New("k"))
	if err != nil || !look.Found {
		t.Fatalf("lookup after resolution = %+v, %v", look, err)
	}
	b.Commit(ctx, id+2)
}
