package rep

import (
	"context"
	"errors"
	"testing"

	"repdir/internal/lock"
	"repdir/internal/wal"
)

// idle reports what a representative still holds for transactions that
// are neither prepared nor decided: nothing, if every call cleaned up
// after itself.
func idle(t *testing.T, r *Rep) {
	t.Helper()
	if s := r.Strays(); len(s) != 0 {
		t.Errorf("%s: stray transactions %v", r.Name(), s)
	}
	if n := r.Locks().ActiveTransactions(); n != 0 {
		t.Errorf("%s: %d transactions still hold locks", r.Name(), n)
	}
}

// TestOneShotLookupLeavesNothing: the marked Lookup answers like the
// plain one and is one Lookups on the counters — not an abort too,
// although it released its lock — and the representative has neither
// a lock nor a record of the transaction afterwards.
func TestOneShotLookupLeavesNothing(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "a", 1, "va")
	before := r.Counters()

	once := MarkOneShot(ctx)
	got, err := r.Lookup(once, 7, k("a"))
	if err != nil || !got.Found || got.Version != 1 || got.Value != "va" {
		t.Fatalf("one-shot lookup = %+v, %v", got, err)
	}
	if got, err := r.Lookup(once, 7, k("b")); err != nil || got.Found {
		t.Fatalf("one-shot lookup of an absent key = %+v, %v", got, err)
	}
	idle(t, r)
	c := r.Counters()
	if c.Lookups-before.Lookups != 2 || c.Aborts != before.Aborts || c.Commits != before.Commits {
		t.Errorf("two one-shot lookups moved the counters %+v -> %+v", before, c)
	}
	// A younger writer is not made to die by a lock left behind.
	if err := r.Insert(ctx, 8, k("a"), 2, "vb"); err != nil {
		t.Fatalf("insert after one-shot lookups: %v", err)
	}
	if err := r.Abort(ctx, 8); err != nil {
		t.Fatal(err)
	}
}

// TestOneShotLookupStillWaitsForWriters: releasing at once is not
// reading without a lock. A younger one-shot reader dies on an
// uncommitted write, and reads the committed value afterwards.
func TestOneShotLookupStillWaitsForWriters(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "a", 1, "old")
	if err := r.Insert(ctx, 5, k("a"), 2, "new"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup(MarkOneShot(ctx), 9, k("a")); !errors.Is(err, lock.ErrDie) {
		t.Fatalf("one-shot lookup under an uncommitted write = %v, want wait-die", err)
	}
	if n := r.Locks().HeldBy(9); n != 0 {
		t.Fatalf("a lookup that died holds %d locks", n)
	}
	if err := r.Commit(ctx, 5); err != nil {
		t.Fatal(err)
	}
	got, err := r.Lookup(MarkOneShot(ctx), 9, k("a"))
	if err != nil || got.Value != "new" {
		t.Fatalf("one-shot lookup after the commit = %+v, %v", got, err)
	}
	idle(t, r)
}

// TestOneShotReleaseIsPrecise: the marked Lookup gives back its own
// lock and no other held under the same ID.
func TestOneShotReleaseIsPrecise(t *testing.T) {
	r := New("A")
	if _, err := r.Lookup(ctx, 7, k("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup(MarkOneShot(ctx), 7, k("b")); err != nil {
		t.Fatal(err)
	}
	if n := r.Locks().HeldBy(7); n != 1 {
		t.Fatalf("transaction 7 holds %d locks, want the one its plain lookup took", n)
	}
	if err := r.Abort(ctx, 7); err != nil {
		t.Fatal(err)
	}
	idle(t, r)
}

// TestWriteCarriesPrepare: under the prepare mark an Insert or Coalesce
// leaves the transaction prepared — durably, in one call, counted as
// the write it is — and refuses a transaction it has not met.
func TestWriteCarriesPrepare(t *testing.T) {
	log := &wal.MemoryLog{}
	r := New("A", WithLog(log))
	mustInsert(t, r, 1, "a", 1, "va")
	mustInsert(t, r, 2, "c", 1, "vc")
	mustInsert(t, r, 3, "b", 1, "vb")
	before, logged := r.Counters(), len(log.Records())
	riding := MarkWriters(MarkPrepare(ctx), 1)

	// Unknown here: the write votes abort, as Prepare would.
	if err := r.Insert(riding, 10, k("x"), 1, "v"); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("insert+prepare from an unknown transaction = %v, want ErrUnknownTxn", err)
	}
	if _, err := r.Coalesce(riding, 10, k("a"), k("c"), 2); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("coalesce+prepare from an unknown transaction = %v, want ErrUnknownTxn", err)
	}
	// The coordinator's abort sweeps the locks those calls took.
	if err := r.Abort(ctx, 10); err != nil {
		t.Fatal(err)
	}
	idle(t, r)
	if got, _ := r.Lookup(MarkOneShot(ctx), 11, k("x")); got.Found {
		t.Fatal("a refused insert was applied")
	}
	before.Aborts++

	// Known through a read: insert, prepared.
	if _, err := r.Lookup(ctx, 20, k("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(riding, 20, k("x"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.Status(ctx, 20); st.Fate() != StatusInDoubt {
		t.Fatalf("status after insert+prepare = %v, want in-doubt", st)
	}
	recs := log.Records()[logged:]
	if len(recs) != 2 || recs[0].Kind != wal.KindInsert || recs[1].Kind != wal.KindPrepare {
		t.Fatalf("insert+prepare logged %+v, want the redo record and a prepare marker", recs)
	}
	// A Prepare in a message of its own has nothing left to do.
	if err := r.Prepare(ctx, 20); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 20); err != nil {
		t.Fatal(err)
	}

	// Known through a read: coalesce, prepared, then aborted — the abort
	// of a prepared transaction is logged and undoes it.
	if _, err := r.Lookup(ctx, 30, k("b")); err != nil {
		t.Fatal(err)
	}
	res, err := r.Coalesce(riding, 30, k("a"), k("c"), 2)
	if err != nil || len(res.DeletedKeys) != 1 {
		t.Fatalf("coalesce+prepare = %+v, %v", res, err)
	}
	if st, _ := r.Status(ctx, 30); st.Fate() != StatusInDoubt {
		t.Fatalf("status after coalesce+prepare = %v, want in-doubt", st)
	}
	if err := r.Abort(ctx, 30); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.Status(ctx, 30); st != StatusAborted {
		t.Fatalf("status after abort = %v", st)
	}
	if got, _ := r.Lookup(MarkOneShot(ctx), 31, k("b")); !got.Found {
		t.Fatal("aborted coalesce removed b")
	}
	idle(t, r)

	c := r.Counters()
	want := before
	want.Lookups += 4 // two plain, two one-shot
	want.Inserts++
	want.Coalesces++
	want.EntriesCoalesced++
	want.Commits++
	want.Aborts++
	if c != want {
		t.Errorf("counters = %+v, want %+v: a write that prepares is one write and no prepare", c, want)
	}
}

// TestPrepareNeedsWriterCount: a prepare at a representative the
// transaction wrote at must name a writer count in 1..MaxWriters — a
// record counting nobody would let one prepare decide the transaction.
// The refusal logs nothing and leaves the transaction unprepared; a
// counted prepare then goes through, and a one-shot Commit counts its
// one writer itself.
func TestPrepareNeedsWriterCount(t *testing.T) {
	log := &wal.MemoryLog{}
	r := New("A", WithLog(log))
	mustInsert(t, r, 1, "a", 1, "va")
	if err := r.Insert(ctx, 2, k("b"), 1, "vb"); err != nil {
		t.Fatal(err)
	}
	logged := len(log.Records())
	for _, bad := range []context.Context{ctx, MarkWriters(ctx, MaxWriters+1), MarkWriters(ctx, -1)} {
		if err := r.Prepare(bad, 2); !errors.Is(err, ErrWriterCount) {
			t.Errorf("prepare naming writers %d = %v, want ErrWriterCount", WritersFrom(bad), err)
		}
	}
	if err := r.Insert(MarkPrepare(ctx), 2, k("c"), 1, "vc"); !errors.Is(err, ErrWriterCount) {
		t.Errorf("insert carrying a prepare with no count = %v, want ErrWriterCount", err)
	}
	if st, _ := r.Status(ctx, 2); st != StatusUnknown || len(log.Records()) != logged {
		t.Fatalf("after refused prepares: status %v, %d records logged", st, len(log.Records())-logged)
	}
	if err := r.Prepare(MarkWriters(ctx, MaxWriters), 2); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.Status(ctx, 2); st != InDoubtOf(MaxWriters) || st.Writers() != MaxWriters {
		t.Fatalf("status = %v, want in doubt of %d writers", st, MaxWriters)
	}
	if err := r.Abort(ctx, 2); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, r, 3, "d", 1, "vd")
	recs := log.Records()
	if p := recs[len(recs)-2]; p.Kind != wal.KindPrepare || p.Writers != 1 || recs[len(recs)-1].Kind != wal.KindCommit {
		t.Errorf("one-shot commit logged %+v, want a prepare of 1 writer and the commit", recs[len(recs)-2:])
	}
	idle(t, r)
}

// TestReaderPrepareReleasesAndForgets: a participant that only read
// votes yes, lets go, and is done; one that does not know the
// transaction — because it restarted — votes abort.
func TestReaderPrepareReleasesAndForgets(t *testing.T) {
	log := &wal.MemoryLog{}
	r := New("A", WithLog(log))
	mustInsert(t, r, 1, "a", 1, "va")
	logged := len(log.Records())

	if _, err := r.Lookup(ctx, 7, k("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Successor(ctx, 7, k("a")); err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(ctx, 7); err != nil {
		t.Fatal(err)
	}
	idle(t, r)
	if st, _ := r.Status(ctx, 7); st != StatusUnknown {
		t.Errorf("a released reader's status = %v, want unknown", st)
	}
	if n := len(log.Records()) - logged; n != 0 {
		t.Errorf("a reader logged %d records", n)
	}
	if c := r.Counters(); c.Prepares != 1 {
		t.Errorf("prepares = %d, want 1: the call was served", c.Prepares)
	}
	// A coordinator that does not tell readers apart still commits it.
	if err := r.Commit(ctx, 7); err != nil {
		t.Errorf("commit after a reader's prepare = %v", err)
	}

	// The reader restarts between its read and the prepare.
	if _, err := r.Lookup(ctx, 8, k("a")); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover("A", log.Records(), WithLog(log))
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Prepare(ctx, 8); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("prepare at a restarted reader = %v, want ErrUnknownTxn", err)
	}
}
