package lock

import (
	"fmt"
	"math/rand"
	"testing"

	"repdir/internal/interval"
	"repdir/internal/keyspace"
)

// refIndex is the obviously-correct linear reference against which the
// treap is property-tested.
type refIndex struct {
	locks map[*inode]held
}

func newRefIndex() *refIndex { return &refIndex{locks: make(map[*inode]held)} }

func (r *refIndex) conflict(txn TxnID, mode Mode, rng interval.Range) (TxnID, bool) {
	var minID TxnID
	found := false
	for _, h := range r.locks {
		if Compatible(txn, mode, rng, h.txn, h.mode, h.rng) {
			continue
		}
		if !found || h.txn < minID {
			minID = h.txn
			found = true
		}
	}
	return minID, found
}

// checkTreap validates the treap's structural invariants: BST order on
// (Lo, seq), heap order on priorities, and correct maxHi augmentation.
func checkTreap(t *testing.T, n *inode) keyspace.Key {
	t.Helper()
	if n == nil {
		return keyspace.Low()
	}
	maxHi := n.lock.rng.Hi
	if n.left != nil {
		if !n.left.lessThan(n.lock.rng.Lo, n.seq) {
			t.Fatal("BST order violated on left child")
		}
		if n.left.priority > n.priority {
			t.Fatal("heap order violated on left child")
		}
		if hi := checkTreap(t, n.left); maxHi.Less(hi) {
			maxHi = hi
		}
	}
	if n.right != nil {
		if n.right.lessThan(n.lock.rng.Lo, n.seq) {
			t.Fatal("BST order violated on right child")
		}
		if n.right.priority > n.priority {
			t.Fatal("heap order violated on right child")
		}
		if hi := checkTreap(t, n.right); maxHi.Less(hi) {
			maxHi = hi
		}
	}
	if !n.maxHi.Equal(maxHi) {
		t.Fatalf("maxHi augmentation wrong: %s vs %s", n.maxHi, maxHi)
	}
	return maxHi
}

// TestIndexMatchesLinearReference drives random inserts, removals, and
// conflict queries through both implementations and demands identical
// answers, validating treap invariants along the way.
func TestIndexMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	ix := newIndex()
	ref := newRefIndex()
	var live []*inode

	randRange := func() interval.Range {
		a := fmt.Sprintf("%03d", rng.Intn(200))
		b := fmt.Sprintf("%03d", rng.Intn(200))
		return interval.Span(keyspace.New(a), keyspace.New(b))
	}
	randMode := func() Mode {
		if rng.Intn(2) == 0 {
			return ModeLookup
		}
		return ModeModify
	}

	for step := 0; step < 5000; step++ {
		switch rng.Intn(5) {
		case 0, 1: // insert
			h := held{txn: TxnID(rng.Intn(40) + 1), mode: randMode(), rng: randRange()}
			n := ix.insert(h)
			ref.locks[n] = h
			live = append(live, n)
		case 2: // remove
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			n := live[i]
			ix.remove(n)
			delete(ref.locks, n)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // conflict query
			txn := TxnID(rng.Intn(40) + 1)
			mode := randMode()
			probe := randRange()
			gotID, gotFound := ix.conflict(txn, mode, probe)
			wantID, wantFound := ref.conflict(txn, mode, probe)
			if gotFound != wantFound || (gotFound && gotID != wantID) {
				t.Fatalf("step %d: conflict(%d, %v, %s) = (%d,%v), want (%d,%v)",
					step, txn, mode, probe, gotID, gotFound, wantID, wantFound)
			}
		}
		if step%250 == 0 {
			checkTreap(t, ix.root)
		}
	}
	checkTreap(t, ix.root)
	// Drain everything and verify emptiness.
	for _, n := range live {
		ix.remove(n)
	}
	if ix.root != nil {
		t.Fatal("index not empty after removing all locks")
	}
}

// TestIndexSentinelRanges exercises ranges touching LOW and HIGH (the
// whole-domain locks the file baseline takes).
func TestIndexSentinelRanges(t *testing.T) {
	ix := newIndex()
	full := ix.insert(held{txn: 1, mode: ModeModify, rng: interval.Full()})
	if _, found := ix.conflict(2, ModeLookup, interval.Point(keyspace.New("q"))); !found {
		t.Fatal("full-domain modify must conflict with any probe")
	}
	if _, found := ix.conflict(1, ModeModify, interval.Full()); found {
		t.Fatal("own lock must not conflict")
	}
	ix.remove(full)
	if _, found := ix.conflict(2, ModeModify, interval.Full()); found {
		t.Fatal("conflict after removal")
	}
}

// TestIndexRecyclesNodes fills and drains the index over and over, so
// that from the second fill on every insert is served from the free
// list, and demands the same answers as the linear reference throughout.
func TestIndexRecyclesNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ix := newIndex()
	seen := make(map[*inode]bool)
	recycled := 0
	for fill := 0; fill < 20; fill++ {
		ref := newRefIndex()
		var live []*inode
		for i := 0; i < 50; i++ {
			a, b := rng.Intn(100), rng.Intn(100)
			h := held{txn: TxnID(rng.Intn(9) + 1), mode: Mode(rng.Intn(2) + 1),
				rng: interval.Span(keyspace.New(fmt.Sprintf("%02d", a)), keyspace.New(fmt.Sprintf("%02d", b)))}
			n := ix.insert(h)
			if seen[n] {
				recycled++
			}
			seen[n] = true
			if n.next != nil {
				t.Fatalf("fill %d: a recycled node came back with its old chain", fill)
			}
			ref.locks[n] = h
			live = append(live, n)
			probe := interval.Point(keyspace.New(fmt.Sprintf("%02d", rng.Intn(100))))
			gotID, got := ix.conflict(5, ModeModify, probe)
			wantID, want := ref.conflict(5, ModeModify, probe)
			if got != want || got && gotID != wantID {
				t.Fatalf("fill %d: conflict at %s = (%d, %v), want (%d, %v)", fill, probe, gotID, got, wantID, want)
			}
		}
		checkTreap(t, ix.root)
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		for _, n := range live {
			ix.remove(n)
		}
		if ix.root != nil {
			t.Fatalf("fill %d: index not empty after removing every lock", fill)
		}
	}
	if len(seen) != 50 || recycled != 19*50 {
		t.Errorf("%d nodes allocated and %d inserts recycled one; want 50 and %d", len(seen), recycled, 19*50)
	}
}
