package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/txn"
)

// TestFanOutWaitsForEveryLeg puts the key's newest version at one member
// only, and holds that member's answer back 20 ms. A parallel Lookup
// reads at all three, two of its calls on parked workers (package legs),
// and must return that version whichever member holds it: fanOut returns
// only once its last leg has written its slot.
func TestFanOutWaitsForEveryLeg(t *testing.T) {
	ctx := context.Background()
	for newest := range 3 {
		ts := newRandomSuite(t, []string{"A", "B", "C"}, 3, 2, 1, WithParallelQuorum(true))
		ts.prepopulate(t, "k")
		const id = lock.TxnID(100)
		if err := ts.reps[newest].Insert(ctx, id, keyspace.New("k"), 2, "newest"); err != nil {
			t.Fatal(err)
		}
		if err := ts.reps[newest].Commit(ctx, id); err != nil {
			t.Fatal(err)
		}
		ts.locals[newest].SetLatency(20 * time.Millisecond)
		v, found, err := ts.suite.Lookup(ctx, "k")
		if err != nil || !found || v != "newest" {
			t.Fatalf("newest version at %s: lookup = %q, %v, %v; want \"newest\"", ts.reps[newest].Name(), v, found, err)
		}
	}
}

// TestBlockedLegsHoldNoWorker blocks more round legs than package legs
// ever keeps parked — 200 older transactions' Lookups, each waiting at
// all three members for a younger transaction's write lock, two of its
// calls on workers — and then runs another suite's parallel operations.
// With no worker free, their calls start goroutines of their own, and
// they complete; so do the blocked Lookups, once the lock is released.
func TestBlockedLegsHoldNoWorker(t *testing.T) {
	const waiters = 200
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 3, 3, 1, WithParallelQuorum(true))
	olds := make([]*txn.Txn, waiters)
	for i := range olds {
		olds[i] = txn.New(ts.suite.ids.Next())
	}
	young := txn.New(ts.suite.ids.Next())
	if err := ts.suite.AttachTx(young, 0).Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for _, old := range olds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := ts.suite.AttachTx(old, 0).Lookup(ctx, "k")
			if err == nil {
				err = old.Abort(ctx)
			}
			errs <- err
		}()
	}
	waits := func() (n uint64) {
		for _, r := range ts.reps {
			n += r.Locks().Stats().Waits
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); waits() < 3*waiters; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d calls blocked on the lock, want %d", waits(), 3*waiters)
		}
	}

	other := newRandomSuite(t, []string{"D", "E", "F"}, 2, 2, 2, WithParallelQuorum(true))
	done := make(chan error, 1)
	go func() {
		if err := other.suite.Insert(ctx, "k", "v"); err != nil {
			done <- err
			return
		}
		if _, _, err := other.suite.Lookup(ctx, "k"); err != nil {
			done <- err
			return
		}
		_, err := other.suite.Scan(ctx, "", 10)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("operation beside the blocked legs: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("another suite's operations did not complete beside the blocked legs")
	}

	if err := young.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("blocked lookup: %v", err)
		}
	}
	if err := other.suite.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
