package rep

import (
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
)

func TestCountersTrackOperations(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "a", 1, "va")
	mustInsert(t, r, 2, "b", 1, "vb")
	mustInsert(t, r, 3, "c", 1, "vc")

	txn := lock.TxnID(4)
	if _, err := r.Lookup(ctx, txn, k("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Predecessor(ctx, txn, k("c")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SuccessorBatch(ctx, txn, keyspace.Low(), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Coalesce(ctx, txn, k("a"), k("c"), 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(MarkWriters(ctx, 1), txn); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, txn); err != nil {
		t.Fatal(err)
	}

	c := r.Counters()
	if c.Inserts != 3 {
		t.Errorf("inserts = %d, want 3", c.Inserts)
	}
	if c.Lookups != 1 {
		t.Errorf("lookups = %d, want 1", c.Lookups)
	}
	if c.NeighborProbes != 2 {
		t.Errorf("neighbor probes = %d, want 2", c.NeighborProbes)
	}
	if c.Coalesces != 1 || c.EntriesCoalesced != 1 {
		t.Errorf("coalesces = %d/%d, want 1/1", c.Coalesces, c.EntriesCoalesced)
	}
	if c.Prepares != 1 {
		t.Errorf("prepares = %d, want 1", c.Prepares)
	}
	// Three one-shot insert commits plus the prepared commit.
	if c.Commits != 4 {
		t.Errorf("commits = %d, want 4", c.Commits)
	}
	if c.Aborts != 0 {
		t.Errorf("aborts = %d, want 0", c.Aborts)
	}
	// An abort registers too.
	if err := r.Insert(ctx, 9, k("x"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := r.Abort(ctx, 9); err != nil {
		t.Fatal(err)
	}
	if got := r.Counters().Aborts; got != 1 {
		t.Errorf("aborts after abort = %d, want 1", got)
	}

	// The map form carries every field under its exposition name.
	m := r.Counters().Map()
	if len(m) != 10 {
		t.Errorf("map has %d entries, want 10: %v", len(m), m)
	}
	if reaped, ok := m["reaped"]; !ok || reaped != 0 || m["inserts"] != 4 || m["neighbor_probes"] != 2 || m["aborts"] != 1 {
		t.Errorf("map = %v", m)
	}
}
