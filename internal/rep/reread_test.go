package rep

import (
	"testing"
	"time"

	"repdir/internal/interval"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
)

// TestBatchReadsAgainAfterAWrite lands a committed insert between a
// batch call's read of the tree and the grant of the lock on what it
// read. The call returns its first read only if the store was not
// written meanwhile; here it was, inside the very range, and the call
// must come back with the new entry.
func TestBatchReadsAgainAfterAWrite(t *testing.T) {
	r := New("reread")
	mustInsert(t, r, 1, "b", 1, "vb")
	mustInsert(t, r, 2, "f", 1, "vf")
	const reader, writer = lock.TxnID(3), lock.TxnID(4)
	// The writer's lock on d is in the way of the reader's (b, f), so the
	// reader — the older, which waits — has read before d exists.
	d := keyspace.New("d")
	if err := r.locks.Acquire(ctx, writer, lock.ModeModify, interval.Point(d)); err != nil {
		t.Fatal(err)
	}
	type reply struct {
		batch []NeighborResult
		err   error
	}
	got := make(chan reply, 1)
	go func() {
		batch, err := r.SuccessorBatch(ctx, reader, keyspace.New("b"), 1)
		got <- reply{batch, err}
	}()
	for r.locks.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := r.Insert(ctx, writer, d, 7, "late"); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, writer); err != nil {
		t.Fatal(err)
	}
	res := <-got
	if res.err != nil || len(res.batch) != 1 || !res.batch[0].Key.Equal(d) || res.batch[0].Value != "late" {
		t.Fatalf("successor of b = %+v, %v; want the entry d committed while the lock was waited for", res.batch, res.err)
	}
	if n := r.Counters().NeighborProbes; n != 1 {
		t.Errorf("%d neighbor probes counted for one call", n)
	}
}
