package rep

import (
	"context"
	"errors"
	"testing"

	"repdir/internal/lock"
	"repdir/internal/version"
	"repdir/internal/wal"
)

// expecting is the context of a point write that builds on a version
// instead of reading it: the prepare rides for two writers, and the key
// is expected to hold an entry (or a gap) at the version before the one
// written.
func expecting(entry bool) context.Context {
	m := &Marked{Context: ctx, Marks: PrepareMark | ExpectGapMark, Writers: 2}
	if entry {
		m.Marks = PrepareMark | ExpectEntryMark
	}
	return m
}

// TestExpectedInsertPrepares: an Insert carrying an expectation that
// holds opens the transaction and prepares in the one call, at a
// representative that never met the transaction: the redo record and a
// prepare naming the two writers are logged. It holds when the key is
// at the expected version in the expected form, and when it is older
// — the representative missed writes, as a write quorum member may.
func TestExpectedInsertPrepares(t *testing.T) {
	log := &wal.MemoryLog{}
	r := New("A", WithLog(log))
	mustInsert(t, r, 1, "a", 3, "va")
	for _, tc := range []struct {
		name  string
		id    uint64
		entry bool
		key   string
		ver   uint64
	}{
		{"entry at v-1", 10, true, "a", 4},
		{"gap at v-1", 11, false, "b", 1},
		{"older entry", 12, true, "a", 9},
		{"older gap", 13, false, "c", 7},
	} {
		logged := len(log.Records())
		id := lock.TxnID(tc.id)
		if err := r.Insert(expecting(tc.entry), id, k(tc.key), version.V(tc.ver), "v"); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st, _ := r.Status(ctx, id); st != InDoubtOf(2) {
			t.Fatalf("%s: status %v, want in doubt of 2 writers", tc.name, st)
		}
		recs := log.Records()[logged:]
		if len(recs) != 2 || recs[0].Kind != wal.KindInsert || recs[1].Kind != wal.KindPrepare || recs[1].Writers != 2 {
			t.Fatalf("%s: logged %+v, want the redo record and a prepare of 2 writers", tc.name, recs)
		}
		if err := r.Commit(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	idle(t, r)
}

// TestExpectedInsertMovedKeepsNothing: an Insert whose expectation the
// key contradicts — a newer version, or the expected one in the other
// form — is refused with ErrVersionMoved, and leaves no lock, no
// transaction record and no log record; so is one at a member
// rebuilding lost storage, which cannot vouch for any version.
func TestExpectedInsertMovedKeepsNothing(t *testing.T) {
	log := &wal.MemoryLog{}
	r := New("A", WithLog(log))
	mustInsert(t, r, 1, "a", 3, "va")
	logged, before := len(log.Records()), r.Counters()
	for _, tc := range []struct {
		name  string
		entry bool
		key   string
		ver   uint64
		want  error
	}{
		{"newer entry", true, "a", 3, ErrVersionMoved},
		{"entry, not a gap", false, "a", 4, ErrVersionMoved},
		{"gap, not an entry", true, "b", 1, ErrVersionMoved},
		{"recovering", true, "a", 4, ErrRecovering},
	} {
		r.SetRecovering(tc.want == ErrRecovering)
		if err := r.Insert(expecting(tc.entry), 20, k(tc.key), version.V(tc.ver), "v"); !errors.Is(err, tc.want) {
			t.Fatalf("%s: %v, want %v", tc.name, err, tc.want)
		}
		idle(t, r)
	}
	r.SetRecovering(false)
	if st, err := r.Status(ctx, 20); st != StatusUnknown {
		t.Errorf("status of the refused transaction = %v, %v; want unknown", st, err)
	}
	if n := len(log.Records()) - logged; n != 0 {
		t.Errorf("refused inserts logged %d records", n)
	}
	if got, _ := r.Lookup(MarkOneShot(ctx), 21, k("a")); got.Version != 3 || got.Value != "va" {
		t.Errorf("a refused insert changed a: %+v", got)
	}
	if c := r.Counters(); c.Inserts-before.Inserts != 4 || c.Aborts != before.Aborts {
		t.Errorf("counters %+v -> %+v: want 4 inserts served and nothing else", before, c)
	}
	// The coordinator's abort finds nothing to undo.
	if err := r.Abort(ctx, 20); err != nil {
		t.Fatal(err)
	}
	if n := len(log.Records()) - logged; n != 0 {
		t.Errorf("the abort of a refused insert logged %d records", n)
	}
}

// TestExpectedInsertDuplicate: a second delivery of an expect-marked
// Insert, at a representative that already knows the transaction, is
// answered by the rules every duplicate is: while the transaction is
// prepared it is a no-op — never checked again against the version the
// first delivery wrote, refused and undone — and once it is decided it
// is refused as decided.
func TestExpectedInsertDuplicate(t *testing.T) {
	r := New("A", WithLog(&wal.MemoryLog{}))
	mustInsert(t, r, 1, "a", 3, "va")
	for _, decide := range []func(context.Context, lock.TxnID) error{r.Commit, r.Abort} {
		cur, _ := r.Lookup(MarkOneShot(ctx), 9, k("a"))
		id := lock.TxnID(30 + cur.Version)
		call := func() error { return r.Insert(expecting(true), id, k("a"), cur.Version+1, "vb") }
		if err := call(); err != nil {
			t.Fatal(err)
		}
		if err := call(); err != nil {
			t.Fatalf("duplicate while prepared: %v", err)
		}
		if st, _ := r.Status(ctx, id); st != InDoubtOf(2) {
			t.Fatalf("status after the duplicate = %v, want in doubt of 2 writers", st)
		}
		if err := decide(ctx, id); err != nil {
			t.Fatal(err)
		}
		if err := call(); !errors.Is(err, ErrTxnDecided) {
			t.Fatalf("duplicate after the decision = %v, want ErrTxnDecided", err)
		}
		if err := decide(ctx, id); err != nil { // sweeps the duplicate's lock
			t.Fatal(err)
		}
	}
	if got, _ := r.Lookup(MarkOneShot(ctx), 9, k("a")); got.Version != 4 || got.Value != "vb" {
		t.Errorf("a = %+v, want the committed insert at version 4", got)
	}
	idle(t, r)
}
