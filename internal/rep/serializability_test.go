package rep

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
)

// TestSerializableCountersOnOneRep runs concurrent read-modify-write
// transactions against a single representative. Strict two-phase locking
// plus wait-die retry must serialize them: no lost updates, final value
// equals the number of committed increments. The run is bounded: a
// transaction that starves fails the test instead of spinning it slowly.
func TestSerializableCountersOnOneRep(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	r := New("A")
	key := keyspace.New("counter")

	setup := lock.TxnID(1)
	if err := r.Insert(ctx, setup, key, 1, "0"); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, setup); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perWorker = 50
	var idMu sync.Mutex
	next := lock.TxnID(100)
	newID := func() lock.TxnID {
		idMu.Lock()
		defer idMu.Unlock()
		next++
		return next
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := newID()
				for {
					err := incrementOnce(ctx, r, id, key)
					if err == nil {
						break
					}
					if !errors.Is(err, lock.ErrDie) {
						errs <- err
						return
					}
					// Wait-die victim: abort and retry with the same
					// (aging) ID, after a pause, as Suite.run backs off
					// after a die. The lock manager keeps no wait queue:
					// a victim that re-reads at once is granted its read
					// lock past the older transaction waiting to upgrade,
					// and the older one starves.
					r.Abort(context.Background(), id)
					if err := ctx.Err(); err != nil {
						errs <- fmt.Errorf("transaction %d still dying at the deadline: %w", id, err)
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final := lock.TxnID(999999)
	res, err := r.Lookup(ctx, final, key)
	if err != nil || !res.Found {
		t.Fatalf("final lookup: %+v %v", res, err)
	}
	r.Commit(ctx, final)
	if want := fmt.Sprintf("%d", workers*perWorker); res.Value != want {
		t.Fatalf("counter = %s, want %s (lost updates — serializability broken)", res.Value, want)
	}
}

// incrementOnce performs one read-modify-write transaction.
func incrementOnce(ctx context.Context, r *Rep, id lock.TxnID, key keyspace.Key) error {
	res, err := r.Lookup(ctx, id, key)
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(res.Value)
	if err != nil {
		return fmt.Errorf("parse counter: %w", err)
	}
	if err := r.Insert(ctx, id, key, res.Version.Next(), strconv.Itoa(n+1)); err != nil {
		return err
	}
	return r.Commit(ctx, id)
}

// TestSerializableDisjointRangesRunConcurrently checks that transactions
// on disjoint ranges of one representative do not serialize: a writer
// holding a lock on one key never blocks a writer on a distant key.
func TestSerializableDisjointRangesRunConcurrently(t *testing.T) {
	ctx := context.Background()
	r := New("A")

	// Txn 10 holds a modify lock on "aaa" and stays open.
	if err := r.Insert(ctx, 10, keyspace.New("aaa"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	// A younger transaction on a disjoint key must proceed immediately
	// (no wait, no die).
	if err := r.Insert(ctx, 20, keyspace.New("zzz"), 1, "v"); err != nil {
		t.Fatalf("disjoint insert should not conflict: %v", err)
	}
	if err := r.Commit(ctx, 20); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 10); err != nil {
		t.Fatal(err)
	}
}
