package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// mapShape is a suite mapModel runs: members, quorums, the random
// selector's seed, how many random steps over how many keys, and options.
type mapShape struct {
	members, r, w int
	seed          int64
	steps, keys   int
	opts          []Option
	everyQuorum   bool // 3-2-2 with scripted quorums: after every step, every read quorum agrees
}

// TestRandomizedOracle: a long workload on 5-3-3 over 30 keys.
func TestRandomizedOracle(t *testing.T) { mapModel(t, mapShape{5, 3, 3, 37, 400, 30, nil, false}) }

// TestQuickSuiteMatchesMapModel: 3-2-2 over a small key alphabet, so
// every key is inserted, updated and deleted many times.
func TestQuickSuiteMatchesMapModel(t *testing.T) {
	mapModel(t, mapShape{3, 2, 2, 65, 300, 11, nil, false})
}

// TestScanMatchesOracleUnderRandomWorkload: 3-2-2 over 25 keys.
func TestScanMatchesOracleUnderRandomWorkload(t *testing.T) {
	mapModel(t, mapShape{3, 2, 2, 66, 200, 25, nil, false})
}

// TestQuickScanSymmetry: sparse keys, so the scans and their windows
// cross long gaps.
func TestQuickScanSymmetry(t *testing.T) { mapModel(t, mapShape{3, 2, 2, 1, 150, 40, nil, false}) }

// TestBasicCRUD: two keys, so nearly every write meets its key's last one.
func TestBasicCRUD(t *testing.T) { mapModel(t, mapShape{3, 2, 2, 7, 60, 2, nil, false}) }

// TestDeleteAtExtremesStillWorks: three keys, drained from alternate ends.
func TestDeleteAtExtremesStillWorks(t *testing.T) {
	mapModel(t, mapShape{3, 2, 2, 3, 40, 3, nil, false})
}

// TestScanEmpty: no step at all; the empty suite is audited.
func TestScanEmpty(t *testing.T) { mapModel(t, mapShape{3, 2, 2, 61, 0, 1, nil, false}) }

// TestQuickVersionDominance is the section 3.3 invariant through the
// public interface: whatever quorums the writes took, no read quorum
// finds a deleted key or misses a present one.
func TestQuickVersionDominance(t *testing.T) { mapModel(t, mapShape{3, 2, 2, 0, 150, 5, nil, true}) }

// TestParallelQuorumCorrectness: full quorums under parallel quorum.
func TestParallelQuorumCorrectness(t *testing.T) {
	mapModel(t, mapShape{3, 3, 3, 5, 200, 25, []Option{WithParallelQuorum(true)}, false})
}

// TestScanWithFanout: neighbor walks that ask for four entries a message.
func TestScanWithFanout(t *testing.T) {
	mapModel(t, mapShape{3, 2, 2, 67, 200, 25, []Option{WithNeighborFanout(4)}, false})
}

// mapModel runs one client's random point operations on a suite with
// random quorums, shadowing each in a plain map: every answer, refusals
// included, must be the map's. Every 25 steps, and at the end, the
// traversals are audited against the map. Last, the keys are deleted
// from alternate ends of the keyspace — each the minimum or the maximum
// key, whose Figure 13 walk ends at a sentinel — and the empty suite is
// audited once more.
func mapModel(t *testing.T, tc mapShape) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C", "D", "E"}[:tc.members], tc.r, tc.w, tc.seed, tc.opts...)
	if tc.everyQuorum {
		ts = newScriptedSuite(t, []string{"A", "B", "C"}, 2, 2)
	}
	s, rng, want := ts.suite, rand.New(rand.NewSource(99)), map[string]string{}
	quorums := [][]int{{0, 1}, {0, 2}, {1, 2}}
	pick := func() {
		if tc.everyQuorum {
			ts.script.set(quorums[rng.Intn(3)], quorums[rng.Intn(3)])
		}
	}
	for step := 0; step < tc.steps; step++ {
		pick()
		key := fmt.Sprintf("k%02d", rng.Intn(tc.keys))
		val := fmt.Sprintf("%s-%d", key, step)
		_, exists := want[key]
		var err, refusal error // refusal: what the map predicts, nil for success
		switch rng.Intn(4) {
		case 0:
			if err = s.Insert(ctx, key, val); exists {
				refusal = ErrKeyExists
			} else {
				want[key] = val
			}
		case 1:
			if err = s.Update(ctx, key, val); !exists {
				refusal = ErrKeyNotFound
			} else {
				want[key] = val
			}
		case 2:
			if err = s.Delete(ctx, key); !exists {
				refusal = ErrKeyNotFound
			}
			delete(want, key)
		default:
			var got string
			var found bool
			got, found, err = s.Lookup(ctx, key)
			if err == nil && (found != exists || got != want[key]) {
				t.Fatalf("step %d: lookup %s = (%q, %v), map (%q, %v)", step, key, got, found, want[key], exists)
			}
		}
		if !errors.Is(err, refusal) {
			t.Fatalf("step %d: %s: %v, map says %v", step, key, err, refusal)
		}
		for i := 0; tc.everyQuorum && i < 3*tc.keys; i++ {
			ts.script.set(quorums[i%3], nil)
			k := fmt.Sprintf("k%02d", i/3)
			if _, found, err := s.Lookup(ctx, k); err != nil || found != (want[k] != "") {
				t.Fatalf("step %d: read quorum %v finds %s %v, %v; map %v", step, quorums[i%3], k, found, err, want[k] != "")
			}
		}
		if step%25 == 24 {
			auditTraversals(ctx, t, s, want)
		}
	}
	auditTraversals(ctx, t, s, want)
	for i := 0; len(want) > 0; i++ {
		pick()
		keys := sortedKeys(want)
		key := keys[0]
		if i%2 == 1 {
			key = keys[len(keys)-1]
		}
		if err := s.Delete(ctx, key); err != nil {
			t.Fatalf("delete %s of %v: %v", key, keys, err)
		}
		delete(want, key)
	}
	auditTraversals(ctx, t, s, want)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// auditTraversals checks every traversal against want: a full scan, in
// key order with values; a reverse scan; pages of three stitched
// together; the window strictly between the first and the last key; and
// Count.
func auditTraversals(ctx context.Context, t *testing.T, s *Suite, want map[string]string) {
	t.Helper()
	var entries []KV
	for _, k := range sortedKeys(want) {
		entries = append(entries, KV{k, want[k]})
	}
	check := func(what string, got, want []KV, err error) {
		t.Helper()
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s = %v, %v; want %v", what, got, err, want)
		}
	}
	all, err := s.Scan(ctx, "", 0)
	check("scan", all, entries, err)
	rev, err := s.ScanReverse(ctx, "", 0)
	slices.Reverse(rev)
	check("reverse scan, reversed", rev, entries, err)
	var paged []KV
	for after := ""; ; {
		page, err := s.Scan(ctx, after, 3)
		if err != nil || len(page) == 0 {
			check("pages of 3", paged, entries, err)
			break
		}
		paged, after = append(paged, page...), page[len(page)-1].Key
	}
	if n := len(entries); n >= 3 {
		window, err := s.ScanRange(ctx, entries[0].Key, entries[n-1].Key, 0)
		check("window", window, entries[1:n-1], err)
	}
	if n, err := s.Count(ctx); err != nil || n != len(entries) {
		t.Fatalf("count = %d, %v; want %d", n, err, len(entries))
	}
}
