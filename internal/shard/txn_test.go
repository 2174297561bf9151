package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repdir/internal/txn"
)

// TestCrossShardTxnAtomicCommit: a transaction writing to two shards
// commits both writes together.
func TestCrossShardTxnAtomicCommit(t *testing.T) {
	r, _ := newTestRouter(t, []string{"m"}, 1)
	ctx := context.Background()

	err := r.RunInTxn(ctx, func(x *Txn) error {
		if err := x.Insert(ctx, "a", "left"); err != nil {
			return err
		}
		return x.Insert(ctx, "x", "right")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ k, v string }{{"a", "left"}, {"x", "right"}} {
		v, found, err := r.Lookup(ctx, tc.k)
		if err != nil || !found || v != tc.v {
			t.Fatalf("Lookup(%q) = (%q, %v, %v), want %q", tc.k, v, found, err, tc.v)
		}
	}
	if r.Stats().CrossShard == 0 {
		t.Fatal("cross-shard txn not counted")
	}
}

// TestCrossShardTxnAtomicAbort: a transaction that fails after writing
// to both shards leaves no trace in either.
func TestCrossShardTxnAtomicAbort(t *testing.T) {
	r, _ := newTestRouter(t, []string{"m"}, 1)
	ctx := context.Background()
	boom := errors.New("boom")

	err := r.RunInTxn(ctx, func(x *Txn) error {
		if err := x.Insert(ctx, "a", "left"); err != nil {
			return err
		}
		if err := x.Insert(ctx, "x", "right"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunInTxn = %v, want boom", err)
	}
	for _, k := range []string{"a", "x"} {
		if _, found, err := r.Lookup(ctx, k); err != nil || found {
			t.Fatalf("Lookup(%q) after abort = (%v, %v), want absent", k, found, err)
		}
	}
	if n, err := r.Count(ctx); err != nil || n != 0 {
		t.Fatalf("Count after abort = (%d, %v), want 0", n, err)
	}
}

// TestCrossShardTxnReadsOwnWrites: reads inside the transaction see
// earlier writes from the same transaction, on whichever shard.
func TestCrossShardTxnReadsOwnWrites(t *testing.T) {
	r, _ := newTestRouter(t, []string{"m"}, 1)
	ctx := context.Background()

	err := r.RunInTxn(ctx, func(x *Txn) error {
		if err := x.Insert(ctx, "a", "1"); err != nil {
			return err
		}
		if err := x.Insert(ctx, "x", "2"); err != nil {
			return err
		}
		for _, tc := range []struct{ k, v string }{{"a", "1"}, {"x", "2"}} {
			v, found, err := x.Lookup(ctx, tc.k)
			if err != nil {
				return err
			}
			if !found || v != tc.v {
				return fmt.Errorf("in-txn Lookup(%q) = (%q, %v), want %q", tc.k, v, found, tc.v)
			}
		}
		// A stitched scan inside the transaction sees both writes.
		kvs, err := x.Scan(ctx, "", 0)
		if err != nil {
			return err
		}
		if len(kvs) != 2 || kvs[0].Key != "a" || kvs[1].Key != "x" {
			return fmt.Errorf("in-txn Scan = %v", kvs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCountConsistentUnderConcurrentWrites: Count and Scan taken in the
// same transaction always agree, and cross-shard counts never observe a
// half-applied multi-shard transaction.
func TestCountConsistentUnderConcurrentWrites(t *testing.T) {
	r, _ := newTestRouter(t, []string{"m"}, 1, WithParallelStitch(true))
	ctx := context.Background()

	// Writers upsert/delete pairs that straddle the split atomically:
	// (a<i>, x<i>) are always inserted and deleted together, so any
	// consistent cut holds an even number of entries.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := fmt.Sprintf("a%d-%d", w, i%3)
				hi := fmt.Sprintf("x%d-%d", w, i%3)
				err := r.RunInTxn(ctx, func(x *Txn) error {
					_, found, err := x.Lookup(ctx, lo)
					if err != nil {
						return err
					}
					if found {
						if err := x.Delete(ctx, lo); err != nil {
							return err
						}
						return x.Delete(ctx, hi)
					}
					if err := x.Insert(ctx, lo, "v"); err != nil {
						return err
					}
					return x.Insert(ctx, hi, "v")
				})
				if err != nil {
					// Wait-die losses surface as retries inside RunInTxn;
					// anything else is a real failure.
					select {
					case <-stop:
						return
					default:
						t.Errorf("writer txn: %v", err)
						return
					}
				}
			}
		}(w)
	}

	for round := 0; round < 20; round++ {
		err := r.RunInTxn(ctx, func(x *Txn) error {
			n, err := x.Count(ctx)
			if err != nil {
				return err
			}
			kvs, err := x.Scan(ctx, "", 0)
			if err != nil {
				return err
			}
			if n != len(kvs) {
				return fmt.Errorf("Count %d != Scan length %d", n, len(kvs))
			}
			if n%2 != 0 {
				return fmt.Errorf("observed half-applied cross-shard txn: count %d", n)
			}
			return nil
		})
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestKeptTxnFailsClosed keeps the Txn a RunInTxn callback was given.
// Once the transaction is over every operation on it — on a shard it
// touched and on one it did not — fails with txn.ErrFinished, while the
// router's own scans, whose shard transactions go back to their suites
// for reuse, run beside it under the race detector.
func TestKeptTxnFailsClosed(t *testing.T) {
	r, _ := newTestRouter(t, []string{"m"}, 1)
	ctx := context.Background()
	var kept *Txn
	err := r.RunInTxn(ctx, func(x *Txn) error {
		kept = x
		return x.Insert(ctx, "a", "left")
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := r.Insert(ctx, fmt.Sprintf("b%03d", i), "v"); err != nil {
				t.Error(err)
			}
			if _, err := r.Scan(ctx, "", 0); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, _, err := kept.Lookup(ctx, "a"); !errors.Is(err, txn.ErrFinished) {
			t.Fatalf("Lookup in a touched shard on a kept Txn = %v, want txn.ErrFinished", err)
		}
		if err := kept.Insert(ctx, "x", "right"); !errors.Is(err, txn.ErrFinished) {
			t.Fatalf("Insert in an untouched shard on a kept Txn = %v, want txn.ErrFinished", err)
		}
		if _, err := kept.Scan(ctx, "", 0); !errors.Is(err, txn.ErrFinished) {
			t.Fatalf("Scan on a kept Txn = %v, want txn.ErrFinished", err)
		}
	}
	wg.Wait()
	if n, err := r.Count(ctx); err != nil || n != 201 {
		t.Fatalf("Count = %d, %v; want the 201 entries inserted", n, err)
	}
}
