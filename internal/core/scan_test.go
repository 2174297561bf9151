package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestScanEmpty(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 61)
	got, err := ts.suite.Scan(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("scan of empty suite = %v", got)
	}
	n, err := ts.suite.Count(ctx)
	if err != nil || n != 0 {
		t.Errorf("count = %d, %v", n, err)
	}
}

func TestScanReturnsSortedCurrentEntries(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 62)
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for _, k := range keys {
		if err := ts.suite.Insert(ctx, k, "v-"+k); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ts.suite.Scan(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	if len(got) != len(keys) {
		t.Fatalf("scan returned %d entries, want %d", len(got), len(keys))
	}
	for i, kv := range got {
		if kv.Key != keys[i] || kv.Value != "v-"+keys[i] {
			t.Errorf("scan[%d] = %+v, want %s", i, kv, keys[i])
		}
	}
}

func TestScanPagination(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 63)
	for i := 0; i < 10; i++ {
		if err := ts.suite.Insert(ctx, fmt.Sprintf("k%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	var all []KV
	after := ""
	for {
		page, err := ts.suite.Scan(ctx, after, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		all = append(all, page...)
		after = page[len(page)-1].Key
	}
	if len(all) != 10 {
		t.Fatalf("pagination returned %d entries", len(all))
	}
	for i, kv := range all {
		if kv.Key != fmt.Sprintf("k%02d", i) {
			t.Errorf("page order broken at %d: %s", i, kv.Key)
		}
	}
	// "after" respects strict inequality.
	page, err := ts.suite.Scan(ctx, "k04", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 2 || page[0].Key != "k05" || page[1].Key != "k06" {
		t.Errorf("scan after k04 = %v", page)
	}
}

func TestScanSkipsGhosts(t *testing.T) {
	// Build ghosts with scripted quorums, then verify Scan never reports
	// deleted keys even when a stale replica still stores them.
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

func TestScanSurvivesReplicaFailure(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 64)
	for i := 0; i < 6; i++ {
		if err := ts.suite.Insert(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	ts.locals[2].Partition()
	got, err := ts.suite.Scan(ctx, "", 0)
	if err != nil {
		t.Fatalf("scan with a replica down: %v", err)
	}
	if len(got) != 6 {
		t.Errorf("scan returned %d entries, want 6", len(got))
	}
}

func TestScanMatchesOracleUnderRandomWorkload(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 65)
	rng := rand.New(rand.NewSource(66))
	oracle := map[string]string{}
	for step := 0; step < 150; step++ {
		key := fmt.Sprintf("k%02d", rng.Intn(25))
		if rng.Intn(2) == 0 {
			if _, ok := oracle[key]; !ok {
				if err := ts.suite.Insert(ctx, key, key); err != nil {
					t.Fatal(err)
				}
				oracle[key] = key
			}
		} else if _, ok := oracle[key]; ok {
			if err := ts.suite.Delete(ctx, key); err != nil {
				t.Fatal(err)
			}
			delete(oracle, key)
		}
		if step%25 == 24 {
			got, err := ts.suite.Scan(ctx, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for k := range oracle {
				want = append(want, k)
			}
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("step %d: scan %d entries, oracle %d", step, len(got), len(want))
			}
			for i := range want {
				if got[i].Key != want[i] {
					t.Fatalf("step %d: scan[%d] = %s, want %s", step, i, got[i].Key, want[i])
				}
			}
		}
	}
}

func TestScanRangeAndPrefix(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 70)
	for _, k := range []string{"job", "m1", "m2", "m3", "svc1", "svc2", "svc3"} {
		if err := ts.suite.Insert(ctx, k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	page, err := ts.suite.ScanRange(ctx, "m1", "m3", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 1 || page[0].Key != "m2" {
		t.Errorf("ScanRange(m1, m3) = %v, want exactly m2", page)
	}
	// Empty until = unbounded: m3 plus the three "svc" keys that sort
	// after "m2".
	page, err = ts.suite.ScanRange(ctx, "m2", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 4 || page[0].Key != "m3" {
		t.Errorf("ScanRange(m2, ∞) = %v, want m3 and the three svc keys", page)
	}
}

func TestScanReverse(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 68)
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys {
		if err := ts.suite.Insert(ctx, k, "v-"+k); err != nil {
			t.Fatal(err)
		}
	}
	// Full reverse scan.
	got, err := ts.suite.ScanReverse(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("reverse scan = %d entries", len(got))
	}
	for i, kv := range got {
		want := keys[len(keys)-1-i]
		if kv.Key != want || kv.Value != "v-"+want {
			t.Errorf("reverse[%d] = %+v, want %s", i, kv, want)
		}
	}
	// Bounded, strictly-before semantics.
	page, err := ts.suite.ScanReverse(ctx, "d", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 2 || page[0].Key != "c" || page[1].Key != "b" {
		t.Errorf("reverse before d = %v", page)
	}
	// Reverse scan skips ghosts like the forward one (delete via a
	// quorum, then read including the stale replica).
	if err := ts.suite.Delete(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	got, err = ts.suite.ScanReverse(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range got {
		if kv.Key == "c" {
			t.Error("deleted key surfaced in reverse scan")
		}
	}
	if len(got) != 4 {
		t.Errorf("reverse scan after delete = %d entries", len(got))
	}
	// Empty suite edge.
	empty := newRandomSuite(t, []string{"X", "Y", "Z"}, 2, 2, 69)
	if out, err := empty.suite.ScanReverse(ctx, "", 0); err != nil || len(out) != 0 {
		t.Errorf("reverse scan of empty suite = %v, %v", out, err)
	}
}

// TestQuickScanSymmetry: for any set of inserted keys, the reverse scan
// is exactly the forward scan reversed, and bounded scans agree with
// slicing the full scan.
func TestQuickScanSymmetry(t *testing.T) {
	ctx := context.Background()
	property := func(raw []uint8, seed int64) bool {
		ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, seed)
		present := map[string]bool{}
		for _, b := range raw {
			key := fmt.Sprintf("k%02d", b%40)
			if !present[key] {
				if err := ts.suite.Insert(ctx, key, "v"); err != nil {
					t.Logf("insert: %v", err)
					return false
				}
				present[key] = true
			}
		}
		fwd, err := ts.suite.Scan(ctx, "", 0)
		if err != nil {
			t.Logf("scan: %v", err)
			return false
		}
		rev, err := ts.suite.ScanReverse(ctx, "", 0)
		if err != nil {
			t.Logf("reverse scan: %v", err)
			return false
		}
		if len(fwd) != len(rev) || len(fwd) != len(present) {
			t.Logf("lengths: fwd=%d rev=%d present=%d", len(fwd), len(rev), len(present))
			return false
		}
		for i := range fwd {
			if fwd[i] != rev[len(rev)-1-i] {
				t.Logf("symmetry broken at %d", i)
				return false
			}
		}
		// A bounded middle window equals the slice of the full scan.
		if len(fwd) >= 3 {
			window, err := ts.suite.ScanRange(ctx, fwd[0].Key, fwd[len(fwd)-1].Key, 0)
			if err != nil {
				return false
			}
			if len(window) != len(fwd)-2 {
				t.Logf("window size %d, want %d", len(window), len(fwd)-2)
				return false
			}
			for i := range window {
				if window[i] != fwd[i+1] {
					return false
				}
			}
		}
		return true
	}
	if err := quickCheckSmall(property, 20); err != nil {
		t.Error(err)
	}
}

func TestScanWithFanout(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 67)
	suite, err := NewSuite(ts.suite.cfg, WithNeighborFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := suite.Insert(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := suite.Scan(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Errorf("fanout scan returned %d entries", len(got))
	}
}
