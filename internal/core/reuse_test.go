package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/txn"
)

// TestOperationAllocs pins what the operations allocate from the suite
// down to the lock table, over in-process members on 3-2-2 with a
// sequential quorum: what is left is data — a delete's neighborhoods
// and the keys it coalesced away, a scan's page and the batches its
// members answered with, a tree node now and then — and none of it the
// operation's own scaffolding.
func TestOperationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const runs = 500
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 1)
	ts.suite.metrics = nil // as deployed: nobody is listening for delete statistics
	fresh, doomed := make([]string, runs+1), make([]string, runs+1)
	for i := range fresh {
		fresh[i], doomed[i] = fmt.Sprintf("fresh-%04d", i), fmt.Sprintf("doomed-%04d", i)
		if err := ts.suite.Insert(ctx, doomed[i], "v"); err != nil {
			t.Fatal(err)
		}
	}
	var i, d int
	for _, op := range []struct {
		name string
		most float64
		do   func() error
	}{
		{"Lookup", 6, func() error { _, _, err := ts.suite.Lookup(ctx, doomed[0]); return err }},
		{"Update", 20, func() error { return ts.suite.Update(ctx, doomed[0], "v2") }},
		{"Insert", 22, func() error { i++; return ts.suite.Insert(ctx, fresh[i-1], "v") }},
		{"Delete", 32, func() error { d++; return ts.suite.Delete(ctx, doomed[d]) }},
		{"Scan", 6, func() error {
			page, err := ts.suite.Scan(ctx, doomed[d], 10)
			if err == nil && len(page) != 10 {
				err = fmt.Errorf("scan of %d entries, want 10", len(page))
			}
			return err
		}},
	} {
		n := testing.AllocsPerRun(runs-1, func() {
			if err := op.do(); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
		})
		if n > op.most {
			t.Errorf("one %s allocates %.0f times, want at most %.0f", op.name, n, op.most)
		} else {
			t.Logf("one %s: %.0f allocations", op.name, n)
		}
	}
}

// TestKeptTxFailsClosed keeps the Tx a RunInTxn callback was given, and
// the Tx a coordinator attached, past the end of their transactions.
// Every operation on them must then fail with txn.ErrFinished and send
// nothing — while the suite's other callers, whose operations run in
// reused memory, carry on beside them undisturbed (the race detector
// says whether the kept Tx shares any of it).
func TestKeptTxFailsClosed(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 1)
	if err := ts.suite.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	var kept []*Tx
	err := ts.suite.RunInTxn(ctx, func(tx *Tx) error {
		kept = append(kept, tx)
		return tx.Update(ctx, "k", "v2")
	})
	if err != nil {
		t.Fatal(err)
	}
	coordinator := txn.New(ts.suite.ids.Next())
	attached := ts.suite.AttachTx(coordinator, 0)
	if err := attached.Insert(ctx, "k2", "v"); err != nil {
		t.Fatal(err)
	}
	if err := coordinator.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	kept = append(kept, attached)

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("other-%d-%d", c, i)
				if err := ts.suite.Insert(ctx, key, "v"); err != nil {
					t.Error(err)
				}
				if _, err := ts.suite.Scan(ctx, key, 2); err != nil {
					t.Error(err)
				}
				if err := ts.suite.Delete(ctx, key); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	before := ts.suite.Stats().Calls
	for i := 0; i < 200; i++ {
		for _, tx := range kept {
			for name, err := range map[string]error{
				"First":  third(tx.SuccessorKey(ctx, keyspace.Low())),
				"Lookup": third(tx.Lookup(ctx, "k")),
				"Insert": tx.Insert(ctx, "fresh", "v"),
				"Update": tx.Update(ctx, "k", "v3"),
				"Delete": tx.Delete(ctx, "k"),
				"Scan":   second(tx.Scan(ctx, "", 0)),
				"Count":  second(tx.Count(ctx)),
			} {
				if !errors.Is(err, txn.ErrFinished) {
					t.Fatalf("%s on a Tx kept past its transaction = %v, want txn.ErrFinished", name, err)
				}
			}
		}
	}
	wg.Wait()
	if v, found, err := ts.suite.Lookup(ctx, "k"); err != nil || !found || v != "v2" {
		t.Fatalf("k = %q, %v, %v after the kept Tx was used; want v2", v, found, err)
	}
	if calls := ts.suite.Stats().Calls - before; calls != 4*200*3+1 {
		t.Errorf("%d suite calls counted, want the other callers' %d and the lookup", calls, 4*200*3)
	}
	for _, r := range ts.reps {
		if n := r.Locks().ActiveTransactions(); n != 0 {
			t.Errorf("%s: %d transactions still hold locks", r.Name(), n)
		}
	}
}

func second[T any](_ T, err error) error        { return err }
func third[T, U any](_ T, _ U, err error) error { return err }
