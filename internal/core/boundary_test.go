package core

import (
	"context"
	"errors"
	"testing"

	"repdir/internal/keyspace"
)

// The tests in this file pin down the ordered-traversal boundary
// semantics the shard router composes on: empty spans, bounds that fall
// exactly on stored keys, reverse scans starting below every key, limits
// exceeding the population, and one-entry walks at the keyspace
// extremes. Each case must behave identically whether the suite serves a
// whole keyspace or one shard's slice of it.

func neighborProbes(ts *testSuite) uint64 {
	var n uint64
	for _, r := range ts.reps {
		n += r.Counters().NeighborProbes
	}
	return n
}

func TestScanRangeEmptySpan(t *testing.T) {
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 1)
	ts.prepopulate(t, "b", "c", "d")
	ctx := context.Background()

	before := neighborProbes(ts)
	for _, tc := range []struct{ after, until string }{
		{"b", "b"}, // after == until
		{"c", "b"}, // inverted bounds
		{"z", "a"}, // inverted, both absent
	} {
		got, err := ts.suite.ScanRange(ctx, tc.after, tc.until, 0)
		if err != nil {
			t.Fatalf("ScanRange(%q,%q): %v", tc.after, tc.until, err)
		}
		if len(got) != 0 {
			t.Fatalf("ScanRange(%q,%q) = %v, want empty", tc.after, tc.until, got)
		}
	}
	if after := neighborProbes(ts); after != before {
		t.Fatalf("empty spans issued %d neighbor probes, want 0", after-before)
	}
}

func TestScanRangeBoundsOnStoredKeys(t *testing.T) {
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 1)
	ts.prepopulate(t, "a", "b", "c", "d")
	ctx := context.Background()

	cases := []struct {
		after, until string
		want         []string
	}{
		{"a", "c", []string{"b"}},               // both bounds stored, both excluded
		{"a", "b", nil},                         // adjacent stored keys: nothing between
		{"", "a", nil},                          // until is the minimum key
		{"c", "", []string{"d"}},                // after is the second-to-last key
		{"d", "", nil},                          // after is the maximum key
		{"", "e", []string{"a", "b", "c", "d"}}, // until above all keys
		{"0", "a", nil},                         // span entirely below the keys
	}
	for _, tc := range cases {
		got, err := ts.suite.ScanRange(ctx, tc.after, tc.until, 0)
		if err != nil {
			t.Fatalf("ScanRange(%q,%q): %v", tc.after, tc.until, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("ScanRange(%q,%q) = %v, want keys %v", tc.after, tc.until, got, tc.want)
		}
		for i, kv := range got {
			if kv.Key != tc.want[i] {
				t.Fatalf("ScanRange(%q,%q)[%d] = %q, want %q", tc.after, tc.until, i, kv.Key, tc.want[i])
			}
		}
	}
}

func TestScanReverseBeforeBelowAllKeys(t *testing.T) {
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 1)
	ts.prepopulate(t, "m", "n", "p")
	ctx := context.Background()

	got, err := ts.suite.ScanReverse(ctx, "a", 10)
	if err != nil {
		t.Fatalf("ScanReverse below all keys: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("ScanReverse below all keys = %v, want empty", got)
	}

	// The Key-typed form starting at LOW itself must answer locally.
	before := neighborProbes(ts)
	err = ts.suite.RunInTxn(ctx, func(tx *Tx) error {
		page, err := tx.ScanReverseSpan(ctx, keyspace.Low(), 10)
		if err != nil {
			return err
		}
		if len(page) != 0 {
			t.Fatalf("ScanReverseSpan(Low) = %v, want empty", page)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ScanReverseSpan(Low): %v", err)
	}
	if after := neighborProbes(ts); after != before {
		t.Fatalf("ScanReverseSpan(Low) issued %d neighbor probes, want 0", after-before)
	}
}

func TestScanReverseLimitExceedsPopulation(t *testing.T) {
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 1)
	ts.prepopulate(t, "a", "b", "c")
	ctx := context.Background()

	got, err := ts.suite.ScanReverse(ctx, "", 100)
	if err != nil {
		t.Fatalf("ScanReverse: %v", err)
	}
	want := []string{"c", "b", "a"}
	if len(got) != len(want) {
		t.Fatalf("ScanReverse limit>population = %v, want %v", got, want)
	}
	for i, kv := range got {
		if kv.Key != want[i] {
			t.Fatalf("ScanReverse[%d] = %q, want %q", i, kv.Key, want[i])
		}
	}
}

// TestNeighborsAtExtremes runs the one-entry walk — a scan of limit 1 —
// at the ends of the keyspace: past the last key or before the first,
// each reports an empty page, a definitive answer and not an error.
func TestNeighborsAtExtremes(t *testing.T) {
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 1)
	ctx := context.Background()

	// Empty directory: both walks reach the far sentinel.
	if got, err := ts.suite.Scan(ctx, "", 1); err != nil || len(got) != 0 {
		t.Fatalf("Scan(\"\", 1) on empty suite = (%v, %v), want empty", got, err)
	}
	if got, err := ts.suite.ScanReverse(ctx, "", 1); err != nil || len(got) != 0 {
		t.Fatalf("ScanReverse(\"\", 1) on empty suite = (%v, %v), want empty", got, err)
	}

	ts.prepopulate(t, "b", "c", "d")
	cases := []struct {
		reverse bool
		arg     string
		want    string // "" for an empty page
	}{
		{false, "", "b"},  // from the very beginning
		{false, "a", "b"}, // from below all keys
		{false, "b", "c"},
		{false, "d", ""}, // nothing above the maximum
		{false, "z", ""},
		{true, "", "d"}, // from the very end
		{true, "z", "d"},
		{true, "c", "b"},
		{true, "b", ""}, // nothing below the minimum
		{true, "a", ""},
	}
	for _, tc := range cases {
		scan, name := ts.suite.Scan, "Scan"
		if tc.reverse {
			scan, name = ts.suite.ScanReverse, "ScanReverse"
		}
		got, err := scan(ctx, tc.arg, 1)
		if err != nil {
			t.Fatalf("%s(%q, 1): %v", name, tc.arg, err)
		}
		key := ""
		if len(got) > 0 {
			key = got[0].Key
		}
		if len(got) > 1 || key != tc.want {
			t.Fatalf("%s(%q, 1) = %v, want %q", name, tc.arg, got, tc.want)
		}
	}

	// From the sentinels themselves there is nothing to ask: the
	// Key-typed forms answer locally, with no representative probes.
	before := neighborProbes(ts)
	err := ts.suite.RunInTxn(ctx, func(tx *Tx) error {
		if page, err := tx.ScanSpan(ctx, keyspace.High(), keyspace.High(), 1); err != nil || len(page) != 0 {
			t.Fatalf("ScanSpan(High, High, 1) = (%v, %v), want empty", page, err)
		}
		if page, err := tx.ScanReverseSpan(ctx, keyspace.Low(), 1); err != nil || len(page) != 0 {
			t.Fatalf("ScanReverseSpan(Low, 1) = (%v, %v), want empty", page, err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunInTxn: %v", err)
	}
	if after := neighborProbes(ts); after != before {
		t.Fatalf("walks from the sentinels issued %d neighbor probes, want 0", after-before)
	}
}

// TestNeighborFailureIsNotNotFound is the contract the router's
// stitching depends on: a walk that cannot complete must surface an
// error, never a quiet empty page that would make a stitched traversal
// silently skip a shard's keys.
func TestNeighborFailureIsNotNotFound(t *testing.T) {
	ts := newScriptedSuite(t, []string{"A", "B", "C"}, 2, 2)
	ts.script.set([]int{0, 1}, []int{0, 1})
	ts.prepopulate(t, "b", "c")
	ctx := context.Background()

	ts.locals[0].Partition()
	ts.locals[1].Partition()
	if got, err := ts.suite.Scan(ctx, "", 1); err == nil {
		t.Fatalf("Scan(\"\", 1) with majority down = %v, want error", got)
	}
	if got, err := ts.suite.ScanReverse(ctx, "", 1); err == nil {
		t.Fatalf("ScanReverse(\"\", 1) with majority down = %v, want error", got)
	}
}

func TestCountMatchesScan(t *testing.T) {
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 7)
	ctx := context.Background()

	if n, err := ts.suite.Count(ctx); err != nil || n != 0 {
		t.Fatalf("Count on empty suite = (%d, %v), want 0", n, err)
	}
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for _, k := range keys {
		if err := ts.suite.Insert(ctx, k, "v-"+k); err != nil {
			t.Fatalf("insert %s: %v", k, err)
		}
	}
	for _, k := range []string{"b", "e"} {
		if err := ts.suite.Delete(ctx, k); err != nil {
			t.Fatalf("delete %s: %v", k, err)
		}
	}
	n, err := ts.suite.Count(ctx)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	entries, err := ts.suite.Scan(ctx, "", 0)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != len(entries) || n != 4 {
		t.Fatalf("Count = %d, Scan length = %d, want 4", n, len(entries))
	}

	// CountSpan over a sub-span, against the equivalent ScanRange.
	err = ts.suite.RunInTxn(ctx, func(tx *Tx) error {
		got, err := tx.CountSpan(ctx, keyspace.New("a"), keyspace.New("f"))
		if err != nil {
			return err
		}
		if got != 2 { // c, d
			t.Fatalf("CountSpan(a,f) = %d, want 2", got)
		}
		if n, err := tx.CountSpan(ctx, keyspace.New("c"), keyspace.New("c")); err != nil || n != 0 {
			t.Fatalf("CountSpan(c,c) = (%d, %v), want 0", n, err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("CountSpan txn: %v", err)
	}
}

func TestDeleteAtExtremesStillWorks(t *testing.T) {
	// Delete of the minimum (maximum) key runs a real-predecessor
	// (real-successor) walk that terminates at the sentinel; the edge
	// guards must not change Figure 13's behavior there.
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 3)
	ts.prepopulate(t, "a", "b", "c")
	ctx := context.Background()

	if err := ts.suite.Delete(ctx, "a"); err != nil {
		t.Fatalf("delete minimum: %v", err)
	}
	if err := ts.suite.Delete(ctx, "c"); err != nil {
		t.Fatalf("delete maximum: %v", err)
	}
	entries, err := ts.suite.Scan(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != "b" {
		t.Fatalf("after boundary deletes: %v, want [b]", entries)
	}
	if err := ts.suite.Delete(ctx, "b"); err != nil {
		t.Fatalf("delete last remaining: %v", err)
	}
	if n, err := ts.suite.Count(ctx); err != nil || n != 0 {
		t.Fatalf("Count after deleting everything = (%d, %v), want 0", n, err)
	}
	if errors.Is(ctx.Err(), context.Canceled) {
		t.Fatal("unexpected cancellation")
	}
}
