package core

import (
	"context"
	"testing"
)

func newTestSet(t *testing.T) (*Set, *testSuite) {
	t.Helper()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 51)
	return NewSet(ts.suite), ts
}

func TestSetAddContainsRemove(t *testing.T) {
	ctx := context.Background()
	set, _ := newTestSet(t)

	if ok, err := set.Contains(ctx, "x"); err != nil || ok {
		t.Fatalf("empty set contains x: %v %v", ok, err)
	}
	if err := set.Add(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if ok, err := set.Contains(ctx, "x"); err != nil || !ok {
		t.Fatalf("set should contain x: %v %v", ok, err)
	}
	// Idempotent add.
	if err := set.Add(ctx, "x"); err != nil {
		t.Fatalf("second add should be a no-op: %v", err)
	}
	if err := set.Remove(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := set.Contains(ctx, "x"); ok {
		t.Fatal("x should be removed")
	}
	// Idempotent remove.
	if err := set.Remove(ctx, "x"); err != nil {
		t.Fatalf("second remove should be a no-op: %v", err)
	}
}

func TestSetAddAllAtomic(t *testing.T) {
	ctx := context.Background()
	set, _ := newTestSet(t)
	if err := set.AddAll(ctx, "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"a", "b", "c"} {
		if ok, _ := set.Contains(ctx, m); !ok {
			t.Errorf("%s missing after AddAll", m)
		}
	}
	// Overlapping AddAll succeeds (idempotent semantics).
	if err := set.AddAll(ctx, "b", "c", "d"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := set.Contains(ctx, "d"); !ok {
		t.Error("d missing after overlapping AddAll")
	}
	// An invalid member (empty key) aborts the whole batch.
	if err := set.AddAll(ctx, "e", ""); err == nil {
		t.Fatal("AddAll with invalid member should fail")
	}
	if ok, _ := set.Contains(ctx, "e"); ok {
		t.Error("aborted AddAll leaked member e")
	}
}

func TestSetRemoveAllAtomic(t *testing.T) {
	ctx := context.Background()
	set, _ := newTestSet(t)
	if err := set.AddAll(ctx, "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := set.RemoveAll(ctx, "a", "never-there", "c"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := set.Contains(ctx, "a"); ok {
		t.Error("a should be removed")
	}
	if ok, _ := set.Contains(ctx, "b"); !ok {
		t.Error("b should remain")
	}
	if ok, _ := set.Contains(ctx, "c"); ok {
		t.Error("c should be removed")
	}
}

func TestSetSurvivesReplicaFailure(t *testing.T) {
	ctx := context.Background()
	set, ts := newTestSet(t)
	if err := set.Add(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	ts.locals[1].Partition()
	if ok, err := set.Contains(ctx, "m"); err != nil || !ok {
		t.Fatalf("membership with replica down: %v %v", ok, err)
	}
	if err := set.Add(ctx, "n"); err != nil {
		t.Fatalf("add with replica down: %v", err)
	}
	if err := set.Remove(ctx, "m"); err != nil {
		t.Fatalf("remove with replica down: %v", err)
	}
}
