package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/version"
)

func ke(s string) keyspace.Key { return keyspace.New(s) }

func entry(s string, v version.V) Entry {
	return Entry{Key: ke(s), Version: v, Value: "val-" + s}
}

// checkInvariants walks the tree verifying the B+tree structural
// invariants: key ordering, occupancy bounds, uniform leaf depth, and
// consistent leaf links.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	var leafDepth = -1
	var walk func(n *node, depth int, lo, hi *keyspace.Key)
	walk = func(n *node, depth int, lo, hi *keyspace.Key) {
		if n.isLeaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaf at depth %d, expected %d", depth, leafDepth)
			}
			for i := 1; i < len(n.entries); i++ {
				if !n.entries[i-1].Key.Less(n.entries[i].Key) {
					t.Fatalf("leaf entries out of order: %s !< %s",
						n.entries[i-1].Key, n.entries[i].Key)
				}
			}
			for _, e := range n.entries {
				if lo != nil && e.Key.Less(*lo) {
					t.Fatalf("entry %s below subtree bound %s", e.Key, *lo)
				}
				if hi != nil && !e.Key.Less(*hi) {
					t.Fatalf("entry %s at or above subtree bound %s", e.Key, *hi)
				}
			}
			if n != tr.root && len(n.entries) < tr.minItems() {
				t.Fatalf("leaf underflow: %d < %d", len(n.entries), tr.minItems())
			}
			if len(n.entries) > tr.maxItems() {
				t.Fatalf("leaf overflow: %d > %d", len(n.entries), tr.maxItems())
			}
			return
		}
		if len(n.children) != len(n.keys)+1 {
			t.Fatalf("inner node with %d keys has %d children", len(n.keys), len(n.children))
		}
		if n != tr.root && len(n.keys) < tr.minItems() {
			t.Fatalf("inner underflow: %d < %d", len(n.keys), tr.minItems())
		}
		if len(n.keys) > tr.maxItems() {
			t.Fatalf("inner overflow")
		}
		for i := 1; i < len(n.keys); i++ {
			if !n.keys[i-1].Less(n.keys[i]) {
				t.Fatalf("separator keys out of order")
			}
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			}
			walk(c, depth+1, clo, chi)
		}
	}
	walk(tr.root, 0, nil, nil)

	// Leaf chain must visit exactly the tree's entries in order.
	n := tr.root
	for !n.isLeaf() {
		n = n.children[0]
	}
	var chain []Entry
	var prev *node
	for ; n != nil; n = n.next {
		if n.prev != prev {
			t.Fatal("broken prev link in leaf chain")
		}
		chain = append(chain, n.entries...)
		prev = n
	}
	if len(chain) != tr.Len() {
		t.Fatalf("leaf chain has %d entries, Len() = %d", len(chain), tr.Len())
	}
	for i := 1; i < len(chain); i++ {
		if !chain[i-1].Key.Less(chain[i].Key) {
			t.Fatal("leaf chain out of order")
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Error("new tree should be empty")
	}
	if _, ok := tr.Get(ke("a")); ok {
		t.Error("Get on empty tree should miss")
	}
	if es := tr.Entries(); len(es) != 0 {
		t.Errorf("Entries of an empty tree = %v", es)
	}
	if _, ok := tr.Lower(ke("a")); ok {
		t.Error("Lower on empty tree should miss")
	}
	if _, _, floorOK, higherOK := floorAndHigher(tr, ke("a")); floorOK || higherOK {
		t.Error("AscendFloor on empty tree should yield nothing")
	}
	if tr.Delete(ke("a")) {
		t.Error("Delete on empty tree should report absent")
	}
}

func TestPutGetDelete(t *testing.T) {
	tr := NewWithDegree(2)
	keys := []string{"m", "c", "x", "a", "q", "b", "z", "k"}
	for i, s := range keys {
		if replaced := tr.Put(entry(s, version.V(i))); replaced {
			t.Errorf("Put(%q) unexpectedly replaced", s)
		}
		checkInvariants(t, tr)
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
	for i, s := range keys {
		e, ok := tr.Get(ke(s))
		if !ok || e.Version != version.V(i) || e.Value != "val-"+s {
			t.Errorf("Get(%q) = %+v, %v", s, e, ok)
		}
	}
	// Replacement updates in place.
	if replaced := tr.Put(Entry{Key: ke("m"), Version: 99, Value: "new"}); !replaced {
		t.Error("Put of existing key should report replacement")
	}
	if e, _ := tr.Get(ke("m")); e.Version != 99 || e.Value != "new" {
		t.Error("replacement did not stick")
	}
	for _, s := range keys {
		if !tr.Delete(ke(s)) {
			t.Errorf("Delete(%q) reported absent", s)
		}
		if tr.Delete(ke(s)) {
			t.Errorf("second Delete(%q) should report absent", s)
		}
		checkInvariants(t, tr)
	}
	if tr.Len() != 0 {
		t.Error("tree should be empty after deleting all keys")
	}
}

func TestSentinelsStoreAndNavigate(t *testing.T) {
	tr := New()
	tr.Put(Entry{Key: keyspace.Low(), GapAfter: 0})
	tr.Put(Entry{Key: keyspace.High()})
	tr.Put(entry("m", 1))
	if es := tr.Entries(); len(es) != 3 || !es[0].Key.IsLow() || !es[2].Key.IsHigh() {
		t.Errorf("Entries = %v, want LOW first and HIGH last", es)
	}
	if p, ok := tr.Lower(ke("m")); !ok || !p.Key.IsLow() {
		t.Error("Lower(m) should be LOW")
	}
	if _, s, _, ok := floorAndHigher(tr, ke("m")); !ok || !s.Key.IsHigh() {
		t.Error("the entry above m should be HIGH")
	}
}

// floorAndHigher reads, through AscendFloor, the entry with the largest
// key at or below key and the entry with the smallest key above it.
func floorAndHigher(tr *Tree, key keyspace.Key) (floor, higher Entry, floorOK, higherOK bool) {
	tr.AscendFloor(key, func(e Entry) bool {
		if !key.Less(e.Key) {
			floor, floorOK = e, true
			return true
		}
		higher, higherOK = e, true
		return false
	})
	return floor, higher, floorOK, higherOK
}

// TestLowerHigherFloor checks the three neighbors of a probe: Lower, and
// the floor and the entry above it as AscendFloor yields them.
func TestLowerHigherFloor(t *testing.T) {
	tr := NewWithDegree(2)
	for _, s := range []string{"b", "d", "f", "h"} {
		tr.Put(entry(s, 1))
	}
	tests := []struct {
		probe      string
		wantLower  string
		lowerOK    bool
		wantHigher string
		higherOK   bool
		wantFloor  string
		floorOK    bool
	}{
		{"a", "", false, "b", true, "", false},
		{"b", "", false, "d", true, "b", true},
		{"c", "b", true, "d", true, "b", true},
		{"d", "b", true, "f", true, "d", true},
		{"e", "d", true, "f", true, "d", true},
		{"h", "f", true, "", false, "h", true},
		{"z", "h", true, "", false, "h", true},
	}
	for _, tt := range tests {
		t.Run(tt.probe, func(t *testing.T) {
			if e, ok := tr.Lower(ke(tt.probe)); ok != tt.lowerOK ||
				(ok && !e.Key.Equal(ke(tt.wantLower))) {
				t.Errorf("Lower(%q) = %v, %v; want %q, %v", tt.probe, e.Key, ok, tt.wantLower, tt.lowerOK)
			}
			floor, higher, floorOK, higherOK := floorAndHigher(tr, ke(tt.probe))
			if higherOK != tt.higherOK || (higherOK && !higher.Key.Equal(ke(tt.wantHigher))) {
				t.Errorf("above %q = %v, %v; want %q, %v", tt.probe, higher.Key, higherOK, tt.wantHigher, tt.higherOK)
			}
			if floorOK != tt.floorOK || (floorOK && !floor.Key.Equal(ke(tt.wantFloor))) {
				t.Errorf("floor of %q = %v, %v; want %q, %v", tt.probe, floor.Key, floorOK, tt.wantFloor, tt.floorOK)
			}
		})
	}
}

func TestAscendRange(t *testing.T) {
	tr := NewWithDegree(2)
	for i := 0; i < 20; i += 2 {
		tr.Put(entry(fmt.Sprintf("%02d", i), 1))
	}
	var got []string
	tr.AscendRange(ke("04"), ke("11"), func(e Entry) bool {
		got = append(got, e.Key.Raw())
		return true
	})
	want := []string{"04", "06", "08", "10"}
	if len(got) != len(want) {
		t.Fatalf("AscendRange got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AscendRange got %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	tr.Ascend(func(Entry) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("Ascend early stop visited %d, want 3", count)
	}
}

func TestDescendRange(t *testing.T) {
	tr := NewWithDegree(2)
	for i := 0; i < 20; i += 2 {
		tr.Put(entry(fmt.Sprintf("%02d", i), 1))
	}
	var got []string
	tr.DescendRange(ke("11"), ke("04"), func(e Entry) bool {
		got = append(got, e.Key.Raw())
		return true
	})
	want := []string{"10", "08", "06", "04"}
	if len(got) != len(want) {
		t.Fatalf("DescendRange got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DescendRange got %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	tr.DescendRange(keyspace.High(), keyspace.Low(), func(Entry) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("DescendRange early stop visited %d, want 3", count)
	}
}

// TestRangeWalksMatchEntries checks AscendRange, DescendRange and
// AscendFloor against the sorted entry list, with bounds on, between and
// outside the keys, across leaf boundaries and after deletions.
func TestRangeWalksMatchEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, degree := range []int{2, 3, 16} {
		tr := NewWithDegree(degree)
		for i := 0; i < 300; i++ {
			tr.Put(entry(fmt.Sprintf("%03d", rng.Intn(200)*2), 1))
		}
		for i := 0; i < 80; i++ {
			tr.Delete(ke(fmt.Sprintf("%03d", rng.Intn(200)*2)))
		}
		all := tr.Entries()
		probes := []keyspace.Key{keyspace.Low(), keyspace.High(), ke(""), ke("999")}
		for i := 0; i < 60; i++ {
			probes = append(probes, ke(fmt.Sprintf("%03d", rng.Intn(402))))
		}
		for _, lo := range probes {
			for _, hi := range probes[:12] {
				var want, asc, desc []Entry
				for _, e := range all {
					if !e.Key.Less(lo) && !hi.Less(e.Key) {
						want = append(want, e)
					}
				}
				tr.AscendRange(lo, hi, func(e Entry) bool { asc = append(asc, e); return true })
				tr.DescendRange(hi, lo, func(e Entry) bool { desc = append(desc, e); return true })
				if len(asc) != len(want) || len(desc) != len(want) {
					t.Fatalf("degree %d [%s, %s]: ascend %d, descend %d entries, want %d", degree, lo, hi, len(asc), len(desc), len(want))
				}
				for i := range want {
					if asc[i] != want[i] || desc[len(want)-1-i] != want[i] {
						t.Fatalf("degree %d [%s, %s]: walk differs at %d", degree, lo, hi, i)
					}
				}
			}
			// AscendFloor starts at the largest entry <= lo.
			start := 0
			for i, e := range all {
				if !lo.Less(e.Key) {
					start = i
				}
			}
			i := start
			tr.AscendFloor(lo, func(e Entry) bool {
				if i >= len(all) || e != all[i] {
					t.Fatalf("degree %d AscendFloor(%s): entry %d is %s, want %s", degree, lo, i-start, e.Key, all[i].Key)
				}
				i++
				return true
			})
			if i != len(all) {
				t.Fatalf("degree %d AscendFloor(%s) stopped after %d entries, want %d", degree, lo, i-start, len(all)-start)
			}
		}
	}
}

func TestBetweenAndDeleteBetween(t *testing.T) {
	tr := NewWithDegree(2)
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		tr.Put(entry(s, 1))
	}
	mid := tr.Between(ke("a"), ke("e"))
	if len(mid) != 3 {
		t.Fatalf("Between returned %d entries, want 3", len(mid))
	}
	// Strictness: endpoints excluded.
	for _, e := range mid {
		if e.Key.Equal(ke("a")) || e.Key.Equal(ke("e")) {
			t.Error("Between must exclude endpoints")
		}
	}
	victims := tr.DeleteBetween(ke("a"), ke("e"))
	if len(victims) != 3 || tr.Len() != 2 {
		t.Fatalf("DeleteBetween removed %d, len now %d", len(victims), tr.Len())
	}
	checkInvariants(t, tr)
	if _, ok := tr.Get(ke("a")); !ok {
		t.Error("endpoint a should survive")
	}
	if _, ok := tr.Get(ke("c")); ok {
		t.Error("interior c should be gone")
	}
	if out := tr.DeleteBetween(ke("a"), ke("e")); len(out) != 0 {
		t.Error("second DeleteBetween should be empty")
	}
}

func TestBetweenEmptyAndAdjacent(t *testing.T) {
	tr := New()
	tr.Put(entry("a", 1))
	tr.Put(entry("b", 1))
	if got := tr.Between(ke("a"), ke("b")); len(got) != 0 {
		t.Error("adjacent entries have an empty in-between")
	}
	if got := tr.Between(ke("x"), ke("z")); len(got) != 0 {
		t.Error("range beyond all entries should be empty")
	}
}

// Model-based randomized test: the tree must agree with a sorted-map model
// under a long random workload of puts, deletes, and queries, across small
// degrees that force frequent splits/merges.
func TestRandomizedAgainstModel(t *testing.T) {
	for _, degree := range []int{2, 3, 4, 16} {
		degree := degree
		t.Run(fmt.Sprintf("degree=%d", degree), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(degree) * 977))
			tr := NewWithDegree(degree)
			model := map[string]Entry{}
			keyOf := func() string { return fmt.Sprintf("%03d", rng.Intn(300)) }
			for step := 0; step < 6000; step++ {
				switch rng.Intn(4) {
				case 0, 1: // put
					s := keyOf()
					e := Entry{Key: ke(s), Version: version.V(step), Value: s}
					_, existed := model[s]
					if tr.Put(e) != existed {
						t.Fatalf("step %d: Put replacement mismatch for %q", step, s)
					}
					model[s] = e
				case 2: // delete
					s := keyOf()
					_, existed := model[s]
					if tr.Delete(ke(s)) != existed {
						t.Fatalf("step %d: Delete mismatch for %q", step, s)
					}
					delete(model, s)
				case 3: // point + navigation queries
					s := keyOf()
					e, ok := tr.Get(ke(s))
					me, mok := model[s]
					if ok != mok || (ok && e != me) {
						t.Fatalf("step %d: Get mismatch for %q", step, s)
					}
					checkNavigation(t, tr, model, s)
				}
				if step%500 == 0 {
					checkInvariants(t, tr)
					if tr.Len() != len(model) {
						t.Fatalf("step %d: Len %d != model %d", step, tr.Len(), len(model))
					}
				}
			}
			checkInvariants(t, tr)
			// Full scan must equal sorted model.
			var want []string
			for s := range model {
				want = append(want, s)
			}
			sort.Strings(want)
			got := tr.Entries()
			if len(got) != len(want) {
				t.Fatalf("scan length %d != %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Key.Raw() != want[i] {
					t.Fatalf("scan[%d] = %q, want %q", i, got[i].Key.Raw(), want[i])
				}
			}
		})
	}
}

// checkNavigation verifies Lower, and the entry above s as AscendFloor
// yields it, against the model for probe s.
func checkNavigation(t *testing.T, tr *Tree, model map[string]Entry, s string) {
	t.Helper()
	var lower, higher string
	var hasLower, hasHigher bool
	for m := range model {
		if m < s && (!hasLower || m > lower) {
			lower, hasLower = m, true
		}
		if m > s && (!hasHigher || m < higher) {
			higher, hasHigher = m, true
		}
	}
	if e, ok := tr.Lower(ke(s)); ok != hasLower || (ok && e.Key.Raw() != lower) {
		t.Fatalf("Lower(%q) = %v, %v; want %q, %v", s, e.Key, ok, lower, hasLower)
	}
	if _, e, _, ok := floorAndHigher(tr, ke(s)); ok != hasHigher || (ok && e.Key.Raw() != higher) {
		t.Fatalf("above %q = %v, %v; want %q, %v", s, e.Key, ok, higher, hasHigher)
	}
}

func TestSequentialInsertAscendingAndDescending(t *testing.T) {
	for name, gen := range map[string]func(i int) int{
		"ascending":  func(i int) int { return i },
		"descending": func(i int) int { return 999 - i },
	} {
		t.Run(name, func(t *testing.T) {
			tr := NewWithDegree(3)
			for i := 0; i < 1000; i++ {
				tr.Put(entry(fmt.Sprintf("%04d", gen(i)), 1))
			}
			checkInvariants(t, tr)
			if tr.Len() != 1000 {
				t.Fatalf("Len = %d", tr.Len())
			}
			prev := ""
			tr.Ascend(func(e Entry) bool {
				if e.Key.Raw() <= prev && prev != "" {
					t.Fatal("scan out of order")
				}
				prev = e.Key.Raw()
				return true
			})
		})
	}
}

func TestGapAfterFieldSurvivesOperations(t *testing.T) {
	tr := New()
	tr.Put(Entry{Key: ke("a"), Version: 1, GapAfter: 7})
	tr.Put(Entry{Key: ke("b"), Version: 1, GapAfter: 8})
	if e, _ := tr.Get(ke("a")); e.GapAfter != 7 {
		t.Error("GapAfter lost on insert")
	}
	// Replacing b must not disturb a's gap.
	tr.Put(Entry{Key: ke("b"), Version: 2, GapAfter: 9})
	if e, _ := tr.Get(ke("a")); e.GapAfter != 7 {
		t.Error("GapAfter of sibling disturbed")
	}
	if e, _ := tr.Get(ke("b")); e.GapAfter != 9 {
		t.Error("GapAfter not replaced")
	}
}

func BenchmarkTreePut(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Put(Entry{Key: keyspace.FromUint64(uint64(i * 2654435761)), Version: 1})
	}
}

func BenchmarkTreeGet(b *testing.B) {
	tr := New()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Put(Entry{Key: keyspace.FromUint64(uint64(i)), Version: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keyspace.FromUint64(uint64(i % n)))
	}
}
