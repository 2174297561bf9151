package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/version"
)

func TestNewSuiteValidates(t *testing.T) {
	dirs := []rep.Directory{transport.NewLocal(rep.New("A")), transport.NewLocal(rep.New("B"))}
	tests := []struct {
		name string
		r, w int
		ok   bool
	}{
		{"2-1-2", 1, 2, true},
		{"2-2-1", 2, 1, true},
		{"2-2-2", 2, 2, true},
		{"2-1-1 no intersection", 1, 1, false},
		{"2-0-2 zero read", 0, 2, false},
		{"2-3-2 oversized", 3, 2, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewSuite(quorum.NewUniform(dirs, tt.r, tt.w))
			if (err == nil) != tt.ok {
				t.Errorf("NewSuite r=%d w=%d: err = %v, want ok=%v", tt.r, tt.w, err, tt.ok)
			}
		})
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	ctx, s := context.Background(), newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 7).suite
	_, _, lookup := s.Lookup(ctx, "")
	for i, err := range []error{s.Insert(ctx, "", "v"), lookup, s.Delete(ctx, ""), s.Update(ctx, "", "v")} {
		if err == nil {
			t.Errorf("operation %d (insert, lookup, delete, update) on the empty key succeeded", i)
		}
	}
}

func TestInsertAfterDeleteGetsHigherVersion(t *testing.T) {
	// Reinsertion after deletion must carry a version above the
	// coalesced gap, so stale replicas can never win a lookup.
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 3)
	s := ts.suite
	if err := s.Insert(ctx, "k", "v1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Delete(ctx, "k"); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if err := s.Insert(ctx, "k", fmt.Sprintf("v%d", i+2)); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	v, found, err := s.Lookup(ctx, "k")
	if err != nil || !found || v != "v6" {
		t.Fatalf("final lookup = %q, %v, %v", v, found, err)
	}
	// Version on any holder must be at least 6 (5 delete/insert cycles).
	for i := range ts.reps {
		if has, ver := ts.repHas(i, "k"); has && ver < 6 {
			t.Errorf("rep %d holds k at version %d, want >= 6", i, ver)
		}
	}
}

func TestRunInTxnAtomicMultiKey(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 11)
	s := ts.suite

	// A transaction inserting two keys commits both.
	err := s.RunInTxn(ctx, func(tx *Tx) error {
		if err := tx.Insert(ctx, "acct-1", "100"); err != nil {
			return err
		}
		return tx.Insert(ctx, "acct-2", "200")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"acct-1", "acct-2"} {
		if _, found, _ := s.Lookup(ctx, k); !found {
			t.Fatalf("%s missing after committed txn", k)
		}
	}

	// A transaction that fails midway leaves no trace.
	wantErr := errors.New("business rule violated")
	err = s.RunInTxn(ctx, func(tx *Tx) error {
		if err := tx.Insert(ctx, "acct-3", "300"); err != nil {
			return err
		}
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("txn error = %v, want %v", err, wantErr)
	}
	if _, found, _ := s.Lookup(ctx, "acct-3"); found {
		t.Fatal("acct-3 must not exist after aborted txn")
	}
}

func TestReadModifyWriteTransaction(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 13)
	s := ts.suite
	if err := s.Insert(ctx, "counter", "10"); err != nil {
		t.Fatal(err)
	}
	err := s.RunInTxn(ctx, func(tx *Tx) error {
		v, found, err := tx.Lookup(ctx, "counter")
		if err != nil || !found {
			return fmt.Errorf("read counter: %v found=%v", err, found)
		}
		if v != "10" {
			return fmt.Errorf("counter = %q", v)
		}
		return tx.Update(ctx, "counter", "11")
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Lookup(ctx, "counter"); v != "11" {
		t.Fatalf("counter = %q, want 11", v)
	}
}

// TestVersionedOps pins the version-returning variants: versions start
// above the gap version and advance by one per write, and LookupV
// reports the same version the write returned.
func TestVersionedOps(t *testing.T) {
	ctx := context.Background()
	dirs := make([]rep.Directory, 3)
	for i, n := range []string{"rep0", "rep1", "rep2"} {
		dirs[i] = transport.NewLocal(rep.New(n))
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	s, err := NewSuite(cfg, WithSelector(quorum.NewStickySelector(cfg)))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}

	v1, err := s.InsertV(ctx, "a", "1")
	if err != nil {
		t.Fatalf("InsertV: %v", err)
	}
	v2, err := s.UpdateV(ctx, "a", "2")
	if err != nil {
		t.Fatalf("UpdateV: %v", err)
	}
	if v2 != v1.Next() {
		t.Errorf("update version %v, want %v", v2, v1.Next())
	}
	val, found, vr, err := s.LookupV(ctx, "a")
	if err != nil || !found || val != "2" {
		t.Fatalf("LookupV = %q, %v, %v", val, found, err)
	}
	if vr != v2 {
		t.Errorf("LookupV version %v, want %v", vr, v2)
	}
	// A missing key reports found=false with the winning gap version.
	_, found, gv, err := s.LookupV(ctx, "zzz")
	if err != nil || found {
		t.Fatalf("LookupV missing = %v, %v", found, err)
	}
	if gv < version.Lowest {
		t.Errorf("gap version %v", gv)
	}
	if _, err := s.InsertV(ctx, "a", "x"); !errors.Is(err, ErrKeyExists) {
		t.Errorf("InsertV existing: %v", err)
	}
	if _, err := s.UpdateV(ctx, "zzz", "x"); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("UpdateV missing: %v", err)
	}
}
