package baseline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repdir/internal/core"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

var ctx = context.Background()

func newFileSuite(t *testing.T, n, r, w int) (*FileSuite, []*FileRep) {
	t.Helper()
	reps := make([]*FileRep, n)
	for i := range reps {
		reps[i] = NewFileRep(fmt.Sprintf("F%d", i))
	}
	s, err := NewFileSuite(reps, r, w, 42)
	if err != nil {
		t.Fatal(err)
	}
	return s, reps
}

func TestFileSuiteValidation(t *testing.T) {
	reps := []*FileRep{NewFileRep("A"), NewFileRep("B"), NewFileRep("C")}
	if _, err := NewFileSuite(reps, 1, 2, 1); err == nil {
		t.Error("R+W <= n should be rejected")
	}
	if _, err := NewFileSuite(reps, 0, 3, 1); err == nil {
		t.Error("zero read quorum should be rejected")
	}
	if _, err := NewFileSuite(nil, 1, 1, 1); err == nil {
		t.Error("empty suite should be rejected")
	}
	if _, err := NewFileSuite(reps, 2, 2, 1); err != nil {
		t.Errorf("3-2-2 should validate: %v", err)
	}
}

func TestFileSuiteReadWrite(t *testing.T) {
	s, reps := newFileSuite(t, 3, 2, 2)
	if got, err := s.Read(ctx); err != nil || got != "" {
		t.Fatalf("initial read = %q, %v", got, err)
	}
	if err := s.Write(ctx, "hello"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := s.Read(ctx)
		if err != nil || got != "hello" {
			t.Fatalf("read %d = %q, %v", i, got, err)
		}
	}
	// At least W replicas carry the newest version.
	holders := 0
	for _, r := range reps {
		if _, data, _ := r.Read(ctx, 999999); data == "hello" {
			holders++
		}
		r.Abort(999999)
	}
	if holders < 2 {
		t.Errorf("only %d replicas hold the write, want >= 2", holders)
	}
}

func TestFileSuiteSequentialWritesMonotone(t *testing.T) {
	s, _ := newFileSuite(t, 5, 3, 3)
	for i := 0; i < 20; i++ {
		if err := s.Write(ctx, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Read(ctx); err != nil || got != fmt.Sprintf("v%d", i) {
			t.Fatalf("read after write %d = %q, %v", i, got, err)
		}
	}
}

func TestFileSuiteConcurrentModify(t *testing.T) {
	// Concurrent read-modify-writes must serialize and lose no update.
	s, _ := newFileSuite(t, 3, 2, 2)
	if err := s.Write(ctx, "0"); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 10
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				err := s.Modify(ctx, func(cur string) (string, error) {
					var n int
					fmt.Sscanf(cur, "%d", &n)
					return fmt.Sprintf("%d", n+1), nil
				})
				if err != nil {
					t.Errorf("modify: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := s.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%d", workers*perWorker); got != want {
		t.Errorf("counter = %s, want %s (lost updates)", got, want)
	}
}

func TestDirectoryAsFileCRUD(t *testing.T) {
	s, _ := newFileSuite(t, 3, 2, 2)
	d := NewDirectoryAsFile(s)
	if err := d.Insert(ctx, "k1", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(ctx, "k1", "v1"); !errors.Is(err, ErrKeyExists) {
		t.Errorf("double insert = %v", err)
	}
	if v, ok, err := d.Lookup(ctx, "k1"); err != nil || !ok || v != "v1" {
		t.Fatalf("lookup = %q %v %v", v, ok, err)
	}
	if err := d.Update(ctx, "k1", "v2"); err != nil {
		t.Fatal(err)
	}
	if err := d.Update(ctx, "missing", "v"); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("update missing = %v", err)
	}
	if err := d.Delete(ctx, "k1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(ctx, "k1"); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("double delete = %v", err)
	}
	if _, ok, _ := d.Lookup(ctx, "k1"); ok {
		t.Error("k1 should be gone")
	}
}

func TestDirectoryAsFileRejectsBadKeys(t *testing.T) {
	s, _ := newFileSuite(t, 3, 2, 2)
	d := NewDirectoryAsFile(s)
	if err := d.Insert(ctx, "a\tb", "v"); err == nil {
		t.Error("tab in key should be rejected")
	}
	if err := d.Insert(ctx, "a", "v\n"); err == nil {
		t.Error("newline in value should be rejected")
	}
	if err := d.Insert(ctx, "", "v"); err == nil {
		t.Error("empty key should be rejected")
	}
}

func TestDirectoryAsFileDeletionsReclaimSpace(t *testing.T) {
	s, _ := newFileSuite(t, 3, 2, 2)
	d := NewDirectoryAsFile(s)
	for i := 0; i < 10; i++ {
		if err := d.Insert(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := d.Delete(ctx, fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := s.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if data != "" {
		t.Errorf("file should be empty after deleting everything, got %q", data)
	}
}

// TestNaiveAmbiguityFigures1to3 reproduces the paper's motivating failure:
// with entry-only version numbers, Lookup("b") on {A, C} returns the same
// replies before and after "b" is deleted, so the client cannot tell.
func TestNaiveAmbiguityFigures1to3(t *testing.T) {
	reps := []*NaiveRep{NewNaiveRep("A"), NewNaiveRep("B"), NewNaiveRep("C")}
	s := NewNaiveSuite(reps, 2, 2, 1)
	// Figure 1: a and c everywhere at version 1.
	for _, r := range reps {
		r.Insert("a", 1, "va")
		r.Insert("c", 1, "vc")
	}
	// Figure 2: insert b into A and B with version 1.
	s.InsertAt(s.PickNamed("A", "B"), "b", "vb")

	// Lookup on {A, C}: A present v1, C not present.
	repliesBefore, presentBefore, ambiguousBefore := s.LookupAt(s.PickNamed("A", "C"), "b")

	// Figure 3: delete b from B and C.
	s.DeleteAt(s.PickNamed("B", "C"), "b")

	// Lookup on {A, C} again: identical replies.
	repliesAfter, presentAfter, ambiguousAfter := s.LookupAt(s.PickNamed("A", "C"), "b")

	if !ambiguousBefore || !ambiguousAfter {
		t.Fatalf("both lookups should be ambiguous: before=%v after=%v",
			ambiguousBefore, ambiguousAfter)
	}
	if len(repliesBefore) != len(repliesAfter) {
		t.Fatal("reply sets differ in size")
	}
	for i := range repliesBefore {
		if repliesBefore[i] != repliesAfter[i] {
			t.Fatalf("replies differ at %d: %+v vs %+v — the ambiguity should be undetectable",
				i, repliesBefore[i], repliesAfter[i])
		}
	}
	// The truth changed (b existed, then was deleted), but the naive
	// verdict cannot: it reports "present" both times.
	if !presentBefore || !presentAfter {
		t.Fatalf("highest-version verdict reports present=%v/%v; after deletion it is wrong",
			presentBefore, presentAfter)
	}
}

// TestUnanimousUpdateAvailability checks both halves of the section 2
// claim: unanimous update is correct, but a single failed replica blocks
// all writes (while reads survive).
func TestUnanimousUpdateAvailability(t *testing.T) {
	names := []string{"A", "B", "C", "D"}
	reps := make([]rep.Directory, len(names))
	locals := make([]*transport.Local, len(names))
	for i, n := range names {
		l := transport.NewLocal(rep.New(n))
		locals[i] = l
		reps[i] = l
	}
	s, err := core.NewSuite(NewUnanimousConfig(reps))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	locals[3].Partition()
	if err := s.Insert(ctx, "k2", "v"); err == nil {
		t.Error("unanimous write must fail with a replica down")
	}
	if v, ok, err := s.Lookup(ctx, "k"); err != nil || !ok || v != "v" {
		t.Errorf("read-any lookup should survive: %q %v %v", v, ok, err)
	}
}
