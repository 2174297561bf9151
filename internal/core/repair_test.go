package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
)

func TestRepairReplicaCatchesUpAfterOutage(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 101)
	s := ts.suite

	// Baseline data while everything is up.
	for i := 0; i < 10; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("pre-%02d", i), "v1"); err != nil {
			t.Fatal(err)
		}
	}
	// A goes down; the suite keeps mutating.
	ts.locals[0].Partition()
	for i := 0; i < 10; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("out-%02d", i), "v1"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := s.Update(ctx, fmt.Sprintf("pre-%02d", i), "v2"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(ctx, "pre-09"); err != nil {
		t.Fatal(err)
	}

	// A returns, stale. Repair it.
	ts.locals[0].Heal()
	stats, err := RepairReplica(ctx, s, ts.locals[0], RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scanned != 19 {
		t.Errorf("scanned = %d, want 19 current entries", stats.Scanned)
	}
	if stats.Copied == 0 {
		t.Error("outage-era inserts should have been copied to A")
	}
	if stats.Freshened == 0 {
		t.Error("outage-era updates should have freshened stale copies on A")
	}

	// A now physically holds every current entry at the current version.
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("out-%02d", i)
		if has, _ := ts.repHas(0, key); !has {
			t.Errorf("A missing %s after repair", key)
		}
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("pre-%02d", i)
		has, ver := ts.repHas(0, key)
		if !has || ver < 2 {
			t.Errorf("A has stale %s after repair (found=%v ver=%d)", key, has, ver)
		}
	}
	// The deletion is NOT resurrected, and A no longer holds its ghost:
	// the repair coalesced it away.
	for i := 0; i < 10; i++ {
		if _, found, err := s.Lookup(ctx, "pre-09"); err != nil || found {
			t.Fatalf("pre-09 resurrected after repair: %v %v", found, err)
		}
	}
	if has, _ := ts.repHas(0, "pre-09"); has {
		t.Error("A still holds the ghost pre-09 after repair")
	}
}

// TestRepairLeavesNoGhost repairs a live member — not recovering, just
// stale — that missed updates, deletes and inserts, and checks that it
// ends physically current: every current entry at its current version
// and value, no ghost, nothing missing.
func TestRepairLeavesNoGhost(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 108)
	s := ts.suite
	const n = 40
	for i := 0; i < n; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("k%02d", 2*i), "v1"); err != nil {
			t.Fatal(err)
		}
	}
	// Every member holds every entry, so C's ghosts below come only from
	// the deletes it misses.
	for i := range ts.reps {
		if _, err := RepairReplica(ctx, s, ts.locals[i], RepairOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	ts.locals[2].Partition()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%02d", 2*i)
		var err error
		switch i % 5 {
		case 0:
			err = s.Update(ctx, key, "v2")
		case 1:
			err = s.Delete(ctx, key)
		case 2:
			err = s.Insert(ctx, fmt.Sprintf("k%02d", 2*i+1), "v3")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ts.locals[2].Heal()
	if has, _ := ts.repHas(2, "k02"); !has {
		t.Fatal("setup: C should hold the ghost k02 before repair")
	}

	stats, err := RepairReplica(ctx, s, ts.locals[2], RepairOptions{PageSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied == 0 || stats.Freshened == 0 {
		t.Errorf("stats = %+v, want copies and freshens", stats)
	}
	current, err := s.Scan(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, len(current))
	for _, kv := range current {
		want[kv.Key] = kv.Value
	}
	held := 0
	for _, e := range ts.reps[2].Dump() {
		if e.Key.IsSentinel() {
			continue
		}
		held++
		v, ok := want[e.Key.Raw()]
		switch {
		case !ok:
			t.Errorf("C holds ghost %s after repair", e.Key.Raw())
		case e.Value != v:
			t.Errorf("C holds %s=%q, current is %q", e.Key.Raw(), e.Value, v)
		}
	}
	if held != len(want) {
		t.Errorf("C holds %d entries, want the %d current ones", held, len(want))
	}
}

func TestRepairIsIdempotent(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 102)
	for i := 0; i < 8; i++ {
		if err := ts.suite.Insert(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RepairReplica(ctx, ts.suite, ts.locals[1], RepairOptions{}); err != nil {
		t.Fatal(err)
	}
	stats, err := RepairReplica(ctx, ts.suite, ts.locals[1], RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied != 0 || stats.Freshened != 0 {
		t.Errorf("second repair should be a no-op: %+v", stats)
	}
}

func TestRepairEmptySuite(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 103)
	stats, err := RepairReplica(ctx, ts.suite, ts.locals[0], RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scanned != 0 {
		t.Errorf("empty repair scanned %d", stats.Scanned)
	}
}

// TestRepairPagingStopsOnShortPage pins the paging contract: the page
// whose walk reaches the high sentinel ends the repair, with no extra
// transaction to confirm the directory is exhausted.
func TestRepairPagingStopsOnShortPage(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 106)
	for i := 0; i < 5; i++ {
		if err := ts.suite.Insert(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	// 5 entries at page size 2: six segments, the last one (k4, high],
	// so pages of 2, 2 and 1 entries — exactly 3 transactions.
	before := ts.suite.Stats().Commits
	var pages int
	var perPage []int
	prev := 0
	stats, err := RepairReplica(ctx, ts.suite, ts.locals[0], RepairOptions{
		PageSize: 2,
		OnPage: func(s RepairStats) error {
			pages++
			perPage = append(perPage, s.Scanned-prev)
			prev = s.Scanned
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scanned != 5 {
		t.Errorf("scanned = %d, want 5", stats.Scanned)
	}
	if pages != 3 {
		t.Errorf("pages = %d (%v), want 3", pages, perPage)
	}
	if txns := ts.suite.Stats().Commits - before; txns != 3 {
		t.Errorf("repair ran %d transactions, want 3", txns)
	}

	// OnPage errors abort the repair immediately and surface verbatim.
	sentinel := errors.New("stop here")
	calls := 0
	_, err = RepairReplica(ctx, ts.suite, ts.locals[0], RepairOptions{
		PageSize: 2,
		OnPage:   func(RepairStats) error { calls++; return sentinel },
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want the OnPage sentinel", err)
	}
	if calls != 1 {
		t.Errorf("OnPage ran %d times after erroring, want 1", calls)
	}
}

// TestRepairDoesNotResurrectDeleted is the ghost-resurrection guard: a
// stale entry installed at a replica after the key was deleted (the
// worst-case interleaving of a repair racing a delete) must stay
// invisible to quorum reads, and further repair passes must not spread
// it to other replicas.
func TestRepairDoesNotResurrectDeleted(t *testing.T) {
	ctx := context.Background()
	ts := newScriptedSuite(t, []string{"A", "B", "C"}, 2, 2)
	s := ts.suite

	// k exists everywhere at version 1, then is deleted through {A, B}:
	// their gap version now dominates 1, while C never hears of it.
	ts.script.set([]int{0, 1}, []int{0, 1, 2})
	if err := s.Insert(ctx, "k", "v1"); err != nil {
		t.Fatal(err)
	}
	ts.script.set([]int{0, 1}, []int{0, 1})
	if err := s.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}

	// The racing repair's install lands at C after the delete commits:
	// re-install the stale (1, "v1") pair directly, exactly what
	// a repair would have written had its quorum read run before the
	// delete and its install after.
	id := lock.TxnID(9999)
	if err := ts.reps[2].Insert(ctx, id, keyspace.New("k"), 1, "v1"); err != nil {
		t.Fatal(err)
	}
	if err := ts.reps[2].Commit(ctx, id); err != nil {
		t.Fatal(err)
	}

	// Version dominance: any read quorum — even one containing C — must
	// report the key absent, because every quorum intersects {A, B} and
	// their gap version outranks the ghost.
	for _, read := range [][]int{{0, 1}, {0, 2}, {1, 2}} {
		ts.script.set(read, []int{0, 1})
		if _, found, err := s.Lookup(ctx, "k"); err != nil || found {
			t.Fatalf("quorum %v: found=%v err=%v, want deleted", read, found, err)
		}
	}

	// A full repair pass over every replica must not spread the ghost:
	// nothing is copied anywhere (the key is not current), and C's copy
	// is coalesced away.
	ts.script.set([]int{0, 1}, []int{0, 1})
	for i := range ts.reps {
		stats, err := RepairReplica(ctx, s, ts.locals[i], RepairOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Copied != 0 || stats.Freshened != 0 {
			t.Errorf("repair of %s propagated the ghost: %+v", ts.reps[i].Name(), stats)
		}
	}
	if has, _ := ts.repHas(0, "k"); has {
		t.Error("ghost spread to A")
	}
	if has, _ := ts.repHas(1, "k"); has {
		t.Error("ghost spread to B")
	}
	if has, _ := ts.repHas(2, "k"); has {
		t.Error("repair left the ghost on C")
	}
}

// TestRepairRacingDeletes runs live RepairReplica passes concurrently
// with deletes of every key and checks that no deletion is undone —
// the async-race complement to the deterministic interleaving above.
// Each repair page holds read-range locks on a read quorum for its walk
// and write-range locks on the target for its coalesces, so a delete
// either lands before a page reads its range or after it commits.
func TestRepairRacingDeletes(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 107)
	s := ts.suite

	const n = 16
	for i := 0; i < n; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("k%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Repair C over and over while the deletes run; conflicts retry
		// under wait-die, and a pass may legitimately fail if its
		// transaction budget is spent racing.
		for i := 0; i < 6; i++ {
			_, _ = RepairReplica(ctx, s, ts.locals[2], RepairOptions{PageSize: 4})
		}
	}()
	for i := 0; i < n; i++ {
		if err := s.Delete(ctx, fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatalf("delete k%02d: %v", i, err)
		}
	}
	wg.Wait()

	// Every deleted key stays deleted, on repeated reads across random
	// quorums, and one more full repair pass installs nothing and leaves
	// C empty.
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%02d", i)
			if _, found, err := s.Lookup(ctx, key); err != nil || found {
				t.Fatalf("pass %d: %s resurrected (found=%v err=%v)", pass, key, found, err)
			}
		}
	}
	stats, err := RepairReplica(ctx, s, ts.locals[2], RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied != 0 || stats.Freshened != 0 {
		t.Errorf("post-race repair installed entries: %+v", stats)
	}
	for _, e := range ts.reps[2].Dump() {
		if !e.Key.IsSentinel() {
			t.Errorf("C holds ghost %s after the post-race repair", e.Key.Raw())
		}
	}
}

func TestRepairZeroVoteHintReplica(t *testing.T) {
	// Repair can populate a zero-vote hint replica (paper section 2:
	// "representatives with zero votes may be used as hints") that
	// quorums never write to.
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 104)
	hintTS := newRandomSuite(t, []string{"H"}, 1, 1, 105)
	hint := hintTS.locals[0]

	// Votes don't matter here: we repair the hint directly.
	for i := 0; i < 6; i++ {
		if err := ts.suite.Insert(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := RepairReplica(ctx, ts.suite, hint, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied != 6 {
		t.Errorf("hint should receive all 6 entries, got %d", stats.Copied)
	}
}
