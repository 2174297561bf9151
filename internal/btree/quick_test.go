package btree

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repdir/internal/keyspace"
	"repdir/internal/version"
)

// TestQuickTreeMatchesSortedMap is a property-based test: any sequence of
// puts and deletes leaves the tree agreeing with a map, scanning in
// sorted order, and walking from a floor (AscendFloor) like the model.
func TestQuickTreeMatchesSortedMap(t *testing.T) {
	property := func(ops []uint16, degreeRaw uint8) bool {
		degree := int(degreeRaw)%6 + 2
		tr := NewWithDegree(degree)
		model := make(map[string]Entry)
		for i, op := range ops {
			key := fmt.Sprintf("%03d", (op>>1)%97)
			if op%2 == 0 {
				e := Entry{Key: keyspace.New(key), Version: version.V(i), Value: key}
				_, existed := model[key]
				if tr.Put(e) != existed {
					t.Logf("Put(%s) replacement mismatch", key)
					return false
				}
				model[key] = e
			} else {
				_, existed := model[key]
				if tr.Delete(keyspace.New(key)) != existed {
					t.Logf("Delete(%s) mismatch", key)
					return false
				}
				delete(model, key)
			}
		}
		if tr.Len() != len(model) {
			t.Logf("Len %d vs model %d", tr.Len(), len(model))
			return false
		}
		// Sorted scan equals sorted model keys.
		var want []string
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		got := tr.Entries()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Key.Raw() != want[i] || got[i] != model[want[i]] {
				t.Logf("scan[%d] mismatch", i)
				return false
			}
		}
		// Navigation probes at a few positions.
		for probe := 0; probe < 97; probe += 13 {
			s := fmt.Sprintf("%03d", probe)
			idx := sort.SearchStrings(want, s)
			// Floor: largest <= s.
			var wantFloor string
			hasFloor := false
			if idx < len(want) && want[idx] == s {
				wantFloor, hasFloor = s, true
			} else if idx > 0 {
				wantFloor, hasFloor = want[idx-1], true
			}
			floor, higher, floorOK, higherOK := floorAndHigher(tr, keyspace.New(s))
			if floorOK != hasFloor || (floorOK && floor.Key.Raw() != wantFloor) {
				t.Logf("floor of %s mismatch", s)
				return false
			}
			// Above: smallest > s.
			hidx := idx
			if hidx < len(want) && want[hidx] == s {
				hidx++
			}
			if higherOK != (hidx < len(want)) || (higherOK && higher.Key.Raw() != want[hidx]) {
				t.Logf("above %s mismatch", s)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickDeleteBetween checks the strict-exclusivity contract of
// DeleteBetween for arbitrary bounds.
func TestQuickDeleteBetween(t *testing.T) {
	property := func(keys []uint8, loRaw, hiRaw uint8) bool {
		tr := NewWithDegree(3)
		model := make(map[string]bool)
		for _, k := range keys {
			s := fmt.Sprintf("%03d", k)
			tr.Put(Entry{Key: keyspace.New(s)})
			model[s] = true
		}
		lo := fmt.Sprintf("%03d", loRaw)
		hi := fmt.Sprintf("%03d", hiRaw)
		victims := tr.DeleteBetween(keyspace.New(lo), keyspace.New(hi))
		for _, v := range victims {
			s := v.Key.Raw()
			if !(lo < s && s < hi) {
				t.Logf("victim %s outside (%s,%s)", s, lo, hi)
				return false
			}
			if !model[s] {
				return false
			}
			delete(model, s)
		}
		if tr.Len() != len(model) {
			return false
		}
		// Survivors are exactly the model.
		for _, e := range tr.Entries() {
			if !model[e.Key.Raw()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
