package core

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repdir/internal/keyspace"
)

func neighborProbes(ts *testSuite) uint64 {
	var n uint64
	for _, r := range ts.reps {
		n += r.Counters().NeighborProbes
	}
	return n
}

// A query is one traversal of a suite, its answer the keys it returned,
// space-separated, or a count.
type query func(ctx context.Context, s *Suite) (string, error)

func keys(page []KV, err error) (string, error) { return joinKeys(page), err }

func qScan(after string, limit int) query {
	return func(ctx context.Context, s *Suite) (string, error) { return keys(s.Scan(ctx, after, limit)) }
}

func qRev(before string, limit int) query {
	return func(ctx context.Context, s *Suite) (string, error) { return keys(s.ScanReverse(ctx, before, limit)) }
}

func qRange(after, until string) query {
	return func(ctx context.Context, s *Suite) (string, error) { return keys(s.ScanRange(ctx, after, until, 0)) }
}

func qCount(ctx context.Context, s *Suite) (string, error) {
	n, err := s.Count(ctx)
	return strconv.Itoa(n), err
}

// qTx runs f in a transaction: the Key-typed forms live on Tx.
func qTx(f func(ctx context.Context, tx *Tx) (string, error)) query {
	return func(ctx context.Context, s *Suite) (out string, err error) {
		err = s.RunInTxn(ctx, func(tx *Tx) error { out, err = f(ctx, tx); return err })
		return out, err
	}
}

func qCountSpan(after, until string) query {
	return qTx(func(ctx context.Context, tx *Tx) (string, error) {
		n, err := tx.CountSpan(ctx, keyspace.New(after), keyspace.New(until))
		return strconv.Itoa(n), err
	})
}

// scanCase is a query over a suite whose members all store the keys
// stored, at version 1, and the answer it must give; local says it is
// answered with no neighbor probe.
type scanCase struct {
	stored string
	q      query
	want   string
	local  bool
}

// scanCases pins the ordered-traversal boundary semantics the shard
// router composes on. Each case must behave identically whether the
// suite serves a whole keyspace or one shard's slice of it.
func scanCases(t *testing.T, cases []scanCase) {
	t.Helper()
	for i, tc := range cases {
		ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 1)
		if tc.stored != "" {
			ts.prepopulate(t, strings.Fields(tc.stored)...)
		}
		before := neighborProbes(ts)
		got, err := tc.q(context.Background(), ts.suite)
		if err != nil || got != tc.want {
			t.Errorf("case %d, over %q: %q, %v; want %q", i, tc.stored, got, err, tc.want)
		}
		if probes := neighborProbes(ts) - before; tc.local && probes != 0 {
			t.Errorf("case %d, over %q: a query answered locally issued %d neighbor probes", i, tc.stored, probes)
		}
	}
}

// TestScanRangeEmptySpan: an empty or inverted span is answered locally.
func TestScanRangeEmptySpan(t *testing.T) {
	scanCases(t, []scanCase{
		{"b c d", qRange("b", "b"), "", true},
		{"b c d", qRange("c", "b"), "", true},
		{"b c d", qRange("z", "a"), "", true},
	})
}

// TestScanRangeBoundsOnStoredKeys: both bounds are excluded, stored or not.
func TestScanRangeBoundsOnStoredKeys(t *testing.T) {
	scanCases(t, []scanCase{
		{"a b c d", qRange("a", "c"), "b", false},
		{"a b c d", qRange("a", "b"), "", false},
		{"a b c d", qRange("", "a"), "", false},
		{"a b c d", qRange("c", ""), "d", false},
		{"a b c d", qRange("d", ""), "", false},
		{"a b c d", qRange("", "e"), "a b c d", false},
		{"a b c d", qRange("0", "a"), "", false},
	})
}

// TestScanRangeAndPrefix: an empty until is unbounded.
func TestScanRangeAndPrefix(t *testing.T) {
	scanCases(t, []scanCase{
		{"job m1 m2 m3 svc1 svc2", qRange("m1", "m3"), "m2", false},
		{"job m1 m2 m3 svc1 svc2", qRange("m2", ""), "m3 svc1 svc2", false},
	})
}

func TestScanReturnsSortedCurrentEntries(t *testing.T) {
	scanCases(t, []scanCase{{"delta alpha echo bravo charlie", qScan("", 0), "alpha bravo charlie delta echo", false}})
}

// TestScanPagination: after is strict, and a limit cuts the page.
func TestScanPagination(t *testing.T) {
	scanCases(t, []scanCase{
		{"a b c d e", qScan("", 3), "a b c", false},
		{"a b c d e", qScan("b", 2), "c d", false},
		{"a b c d e", qScan("c", 9), "d e", false},
	})
}

func TestScanReverse(t *testing.T) {
	scanCases(t, []scanCase{
		{"a b c d e", qRev("", 0), "e d c b a", false},
		{"a b c d e", qRev("d", 2), "c b", false},
		{"", qRev("", 0), "", false},
	})
}

// TestScanReverseBeforeBelowAllKeys: nothing below, and the Key-typed
// form starting at LOW itself answers locally.
func TestScanReverseBeforeBelowAllKeys(t *testing.T) {
	scanCases(t, []scanCase{
		{"m n p", qRev("a", 10), "", false},
		{"m n p", qTx(func(ctx context.Context, tx *Tx) (string, error) {
			return keys(tx.ScanReverseSpan(ctx, keyspace.Low(), 10))
		}), "", true},
	})
}

func TestScanReverseLimitExceedsPopulation(t *testing.T) {
	scanCases(t, []scanCase{{"a b c", qRev("", 100), "c b a", false}})
}

// TestNeighborsAtExtremes runs the one-entry walk — a scan of limit 1 —
// at the ends of the keyspace: past the last key or before the first,
// each reports an empty page, a definitive answer and not an error. From
// a sentinel itself there is nothing to ask.
func TestNeighborsAtExtremes(t *testing.T) {
	scanCases(t, []scanCase{
		{"", qScan("", 1), "", false},
		{"", qRev("", 1), "", false},
		{"b c d", qScan("", 1), "b", false},
		{"b c d", qScan("a", 1), "b", false},
		{"b c d", qScan("b", 1), "c", false},
		{"b c d", qScan("d", 1), "", false},
		{"b c d", qScan("z", 1), "", false},
		{"b c d", qRev("", 1), "d", false},
		{"b c d", qRev("z", 1), "d", false},
		{"b c d", qRev("c", 1), "b", false},
		{"b c d", qRev("b", 1), "", false},
		{"b c d", qRev("a", 1), "", false},
		{"b c d", qTx(func(ctx context.Context, tx *Tx) (string, error) {
			return keys(tx.ScanSpan(ctx, keyspace.High(), keyspace.High(), 1))
		}), "", true},
		{"b c d", qTx(func(ctx context.Context, tx *Tx) (string, error) {
			return keys(tx.ScanReverseSpan(ctx, keyspace.Low(), 1))
		}), "", true},
	})
}

// TestCountMatchesScan: Count, and CountSpan over a sub-span.
func TestCountMatchesScan(t *testing.T) {
	scanCases(t, []scanCase{
		{"", qCount, "0", false},
		{"a c d f", qCount, "4", false},
		{"a c d f", qCountSpan("a", "f"), "2", false},
		{"a c d f", qCountSpan("c", "c"), "0", false},
	})
}

// TestScanSkipsGhosts: a scan never reports a deleted key, even when a
// stale replica in its read quorum still stores it.
func TestScanSkipsGhosts(t *testing.T) {
	ctx := context.Background()
	ts := newScriptedSuite(t, []string{"A", "B", "C"}, 2, 2)
	ts.prepopulate(t, "a", "c", "e")
	ts.script.set([]int{0, 1}, []int{0, 1})
	if err := ts.suite.Insert(ctx, "b", "vb"); err != nil {
		t.Fatal(err)
	}
	if err := ts.suite.Insert(ctx, "d", "vd"); err != nil {
		t.Fatal(err)
	}
	// Delete b and d through quorums that leave ghosts on A.
	ts.script.set([]int{1, 2}, []int{1, 2})
	if err := ts.suite.Delete(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if err := ts.suite.Delete(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if has, _ := ts.repHas(0, "b"); !has {
		t.Fatal("test setup: A should hold ghost b")
	}
	// Scan with a read quorum including the stale A.
	ts.script.set([]int{0, 2}, nil)
	got, err := ts.suite.Scan(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "c", "e"}
	if len(got) != len(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].Key != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
}
