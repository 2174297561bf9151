package rep

import (
	"context"
	"errors"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/version"
	"repdir/internal/wal"
)

var ctx = context.Background()

func k(s string) keyspace.Key { return keyspace.New(s) }

// commitOp runs fn inside a fresh transaction and commits it.
func commitOp(t *testing.T, r *Rep, txn lock.TxnID, fn func() error) {
	t.Helper()
	if err := fn(); err != nil {
		t.Fatalf("txn %d op: %v", txn, err)
	}
	if err := r.Commit(ctx, txn); err != nil {
		t.Fatalf("txn %d commit: %v", txn, err)
	}
}

func mustInsert(t *testing.T, r *Rep, txn lock.TxnID, key string, v version.V, val string) {
	t.Helper()
	commitOp(t, r, txn, func() error { return r.Insert(ctx, txn, k(key), v, val) })
}

func TestNewRepHasSentinelsAndInitialGap(t *testing.T) {
	r := New("A")
	if r.Len() != 2 {
		t.Fatalf("new rep should hold exactly the sentinels, got %d entries", r.Len())
	}
	res, err := r.Lookup(ctx, 1, k("anything"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("empty rep should not find entries")
	}
	if res.Version != version.Lowest {
		t.Errorf("initial gap version = %d, want %d", res.Version, version.Lowest)
	}
	// Sentinels are present.
	for _, s := range []keyspace.Key{keyspace.Low(), keyspace.High()} {
		res, err := r.Lookup(ctx, 1, s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Errorf("sentinel %s should be present", s)
		}
	}
	r.Abort(ctx, 1)
}

func TestInsertLookup(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "b", 1, "vb")
	res, err := r.Lookup(ctx, 2, k("b"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Version != 1 || res.Value != "vb" {
		t.Errorf("lookup = %+v", res)
	}
	r.Commit(ctx, 2)
}

func TestInsertSplitsGapKeepingVersion(t *testing.T) {
	// Paper, Figure 4: inserting "b" into a gap at version 0 gives "b"
	// version 1, and both halves of the split gap stay at version 0.
	r := New("A")
	mustInsert(t, r, 1, "a", 1, "va")
	mustInsert(t, r, 2, "c", 1, "vc")
	// Gap (a..c) is at version 0; insert b with version 1.
	mustInsert(t, r, 3, "b", 1, "vb")

	checkGap := func(txn lock.TxnID, probe string, want version.V) {
		t.Helper()
		res, err := r.Lookup(ctx, txn, k(probe))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatalf("%q should be missing", probe)
		}
		if res.Version != want {
			t.Errorf("gap version at %q = %d, want %d", probe, res.Version, want)
		}
		r.Commit(ctx, txn)
	}
	checkGap(4, "aa", 0) // gap (a..b)
	checkGap(5, "bb", 0) // gap (b..c)
}

func TestInsertOverwrite(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "a", 1, "va")
	mustInsert(t, r, 2, "a", 2, "va2")
	res, err := r.Lookup(ctx, 3, k("a"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Version != 2 || res.Value != "va2" {
		t.Errorf("overwrite result = %+v", res)
	}
	r.Commit(ctx, 3)
}

func TestInsertSentinelRejected(t *testing.T) {
	r := New("A")
	if err := r.Insert(ctx, 1, keyspace.Low(), 1, "x"); !errors.Is(err, ErrSentinel) {
		t.Errorf("insert LOW = %v, want ErrSentinel", err)
	}
	if err := r.Insert(ctx, 1, keyspace.High(), 1, "x"); !errors.Is(err, ErrSentinel) {
		t.Errorf("insert HIGH = %v, want ErrSentinel", err)
	}
	r.Abort(ctx, 1)
}

func TestPredecessorSuccessor(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "b", 3, "vb")
	mustInsert(t, r, 2, "f", 4, "vf")

	txn := lock.TxnID(3)
	pred, err := r.Predecessor(ctx, txn, k("f"))
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Key.Equal(k("b")) || pred.Version != 3 || pred.Value != "vb" {
		t.Errorf("predecessor = %+v", pred)
	}
	if pred.GapVersion != 0 {
		t.Errorf("gap version between b and f = %d, want 0", pred.GapVersion)
	}

	succ, err := r.Successor(ctx, txn, k("b"))
	if err != nil {
		t.Fatal(err)
	}
	if !succ.Key.Equal(k("f")) || succ.Version != 4 {
		t.Errorf("successor = %+v", succ)
	}

	// Neighbors of keys that are not entries.
	pred2, err := r.Predecessor(ctx, txn, k("d"))
	if err != nil {
		t.Fatal(err)
	}
	if !pred2.Key.Equal(k("b")) {
		t.Errorf("predecessor of missing d = %s", pred2.Key)
	}
	succ2, err := r.Successor(ctx, txn, k("d"))
	if err != nil {
		t.Fatal(err)
	}
	if !succ2.Key.Equal(k("f")) {
		t.Errorf("successor of missing d = %s", succ2.Key)
	}

	// First and last real entries neighbor the sentinels.
	predB, err := r.Predecessor(ctx, txn, k("b"))
	if err != nil {
		t.Fatal(err)
	}
	if !predB.Key.IsLow() {
		t.Errorf("predecessor of first entry = %s, want LOW", predB.Key)
	}
	succF, err := r.Successor(ctx, txn, k("f"))
	if err != nil {
		t.Fatal(err)
	}
	if !succF.Key.IsHigh() {
		t.Errorf("successor of last entry = %s, want HIGH", succF.Key)
	}
	r.Commit(ctx, txn)
}

func TestNeighborOfSentinelEdges(t *testing.T) {
	r := New("A")
	if _, err := r.Predecessor(ctx, 1, keyspace.Low()); !errors.Is(err, ErrNoNeighbor) {
		t.Errorf("Predecessor(LOW) = %v, want ErrNoNeighbor", err)
	}
	if _, err := r.Successor(ctx, 1, keyspace.High()); !errors.Is(err, ErrNoNeighbor) {
		t.Errorf("Successor(HIGH) = %v, want ErrNoNeighbor", err)
	}
	// But Successor(LOW) and Predecessor(HIGH) work.
	if s, err := r.Successor(ctx, 1, keyspace.Low()); err != nil || !s.Key.IsHigh() {
		t.Errorf("Successor(LOW) = %+v, %v", s, err)
	}
	if p, err := r.Predecessor(ctx, 1, keyspace.High()); err != nil || !p.Key.IsLow() {
		t.Errorf("Predecessor(HIGH) = %+v, %v", p, err)
	}
	r.Commit(ctx, 1)
}

func TestCoalesceDeletesRangeAndSetsGap(t *testing.T) {
	// Paper, Figure 5: deleting "b" coalesces (a..c) to version 2.
	r := New("A")
	mustInsert(t, r, 1, "a", 1, "va")
	mustInsert(t, r, 2, "c", 1, "vc")
	mustInsert(t, r, 3, "b", 1, "vb")

	txn := lock.TxnID(4)
	res, err := r.Coalesce(ctx, txn, k("a"), k("c"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeletedKeys) != 1 || !res.DeletedKeys[0].Equal(k("b")) {
		t.Errorf("deleted = %v", res.DeletedKeys)
	}
	if err := r.Commit(ctx, txn); err != nil {
		t.Fatal(err)
	}

	look, err := r.Lookup(ctx, 5, k("b"))
	if err != nil {
		t.Fatal(err)
	}
	if look.Found {
		t.Error("b should be deleted")
	}
	if look.Version != 2 {
		t.Errorf("coalesced gap version = %d, want 2", look.Version)
	}
	r.Commit(ctx, 5)
}

func TestCoalesceValidation(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "a", 1, "va")
	txn := lock.TxnID(2)
	if _, err := r.Coalesce(ctx, txn, k("c"), k("a"), 2); !errors.Is(err, ErrBadRange) {
		t.Errorf("inverted coalesce = %v, want ErrBadRange", err)
	}
	if _, err := r.Coalesce(ctx, txn, k("a"), k("zz"), 2); !errors.Is(err, ErrMissingBound) {
		t.Errorf("missing high bound = %v, want ErrMissingBound", err)
	}
	if _, err := r.Coalesce(ctx, txn, k("0"), k("a"), 2); !errors.Is(err, ErrMissingBound) {
		t.Errorf("missing low bound = %v, want ErrMissingBound", err)
	}
	r.Abort(ctx, txn)
}

func TestCoalesceWithSentinelBounds(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "a", 1, "va")
	mustInsert(t, r, 2, "b", 1, "vb")
	txn := lock.TxnID(3)
	res, err := r.Coalesce(ctx, txn, keyspace.Low(), keyspace.High(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeletedKeys) != 2 {
		t.Errorf("full coalesce deleted %d entries, want 2", len(res.DeletedKeys))
	}
	r.Commit(ctx, txn)
	if r.Len() != 2 {
		t.Error("only sentinels should remain")
	}
	look, _ := r.Lookup(ctx, 4, k("zzz"))
	if look.Version != 5 {
		t.Errorf("gap version = %d, want 5", look.Version)
	}
	r.Commit(ctx, 4)
}

func TestAbortUndoesInsertAndCoalesce(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "a", 1, "va")
	mustInsert(t, r, 2, "b", 1, "vb")
	mustInsert(t, r, 3, "c", 1, "vc")

	txn := lock.TxnID(4)
	if err := r.Insert(ctx, txn, k("x"), 9, "vx"); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(ctx, txn, k("a"), 9, "overwritten"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Coalesce(ctx, txn, k("a"), k("c"), 9); err != nil {
		t.Fatal(err)
	}
	if err := r.Abort(ctx, txn); err != nil {
		t.Fatal(err)
	}

	// Everything restored: a at version 1, b present, x absent, gap
	// versions back to original.
	checks := []struct {
		key       string
		wantFound bool
		wantVer   version.V
		wantVal   string
	}{
		{"a", true, 1, "va"},
		{"b", true, 1, "vb"},
		{"c", true, 1, "vc"},
		{"x", false, 0, ""},
		{"bb", false, 0, ""},
	}
	for i, tt := range checks {
		txn := lock.TxnID(10 + i)
		res, err := r.Lookup(ctx, txn, k(tt.key))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != tt.wantFound || res.Version != tt.wantVer ||
			(tt.wantFound && res.Value != tt.wantVal) {
			t.Errorf("after abort, lookup(%q) = %+v", tt.key, res)
		}
		r.Commit(ctx, txn)
	}
}

func TestAbortReleasesLocks(t *testing.T) {
	r := New("A")
	if err := r.Insert(ctx, 5, k("m"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	// Younger txn dies on conflict.
	if err := r.Insert(ctx, 6, k("m"), 1, "w"); !errors.Is(err, lock.ErrDie) {
		t.Fatalf("conflicting younger insert = %v, want ErrDie", err)
	}
	r.Abort(ctx, 6)
	r.Abort(ctx, 5)
	// Now the key is free again.
	mustInsert(t, r, 7, "m", 1, "v2")
}

func TestCommitWithoutMutationsIsHarmless(t *testing.T) {
	r := New("A")
	if _, err := r.Lookup(ctx, 1, k("q")); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 99); err != nil {
		t.Fatal(err) // commit of unknown txn is a no-op
	}
}

func TestRecoveryReplaysCommittedOnly(t *testing.T) {
	var log wal.MemoryLog
	r := New("A", WithLog(&log))
	mustInsert(t, r, 1, "a", 1, "va")
	mustInsert(t, r, 2, "b", 1, "vb")
	mustInsert(t, r, 3, "c", 1, "vc")
	// Committed delete of b via coalesce.
	if _, err := r.Coalesce(ctx, 4, k("a"), k("c"), 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 4); err != nil {
		t.Fatal(err)
	}
	// An insert that never prepared: presumed abort, gone at recovery.
	if err := r.Insert(ctx, 5, k("yy"), 7, "unprepared"); err != nil {
		t.Fatal(err)
	}
	// A prepared-but-undecided insert: must come back IN DOUBT, its
	// effects withheld and its write locks held.
	if err := r.Insert(ctx, 6, k("zz"), 7, "indoubt"); err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(MarkWriters(ctx, 1), 6); err != nil {
		t.Fatal(err)
	}
	// Crash here: rebuild from the log.
	r2, err := Recover("A", log.Records())
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		key       string
		wantFound bool
		wantVer   version.V
	}{
		{"a", true, 1},
		{"b", false, 2}, // coalesced gap version
		{"c", true, 1},
		{"yy", false, 0},
	}
	for i, tt := range tests {
		txn := lock.TxnID(10 + i)
		res, err := r2.Lookup(ctx, txn, k(tt.key))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != tt.wantFound || res.Version != tt.wantVer {
			t.Errorf("recovered lookup(%q) = %+v, want found=%v ver=%d",
				tt.key, res, tt.wantFound, tt.wantVer)
		}
		r2.Commit(ctx, txn)
	}
	// zz is guarded by the in-doubt transaction's lock: a younger
	// reader dies rather than observing undecided state.
	if _, err := r2.Lookup(ctx, 20, k("zz")); !errors.Is(err, lock.ErrDie) {
		t.Fatalf("lookup of in-doubt key = %v, want ErrDie", err)
	}
	r2.Abort(ctx, 20)
	if st, _ := r2.Status(ctx, 6); st.Fate() != StatusInDoubt {
		t.Fatalf("txn 6 status = %v, want in-doubt", st)
	}
	// Resolve by aborting: zz never existed.
	if err := r2.Abort(ctx, 6); err != nil {
		t.Fatal(err)
	}
	res, err := r2.Lookup(ctx, 21, k("zz"))
	if err != nil || res.Found {
		t.Fatalf("zz after aborting in-doubt txn = %+v, %v", res, err)
	}
	r2.Commit(ctx, 21)
	if got, want := r2.Len(), r.Len()-2; got != want {
		t.Errorf("recovered rep has %d entries, want %d (without yy and zz)", got, want)
	}
}

func TestRecoveryIdempotentAcrossReopen(t *testing.T) {
	var log wal.MemoryLog
	r := New("A", WithLog(&log))
	mustInsert(t, r, 1, "k1", 1, "v1")
	r2, err := Recover("A", log.Records())
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Recover("A", log.Records())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != r3.Len() {
		t.Error("recovery must be deterministic")
	}
}

func TestDumpIncludesGapVersions(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "a", 1, "va")
	entries := r.Dump()
	if len(entries) != 3 {
		t.Fatalf("dump has %d entries, want 3", len(entries))
	}
	if !entries[0].Key.IsLow() || !entries[2].Key.IsHigh() {
		t.Error("dump should be bounded by sentinels")
	}
}
