// Package btree implements the in-memory B+tree that stores a directory
// representative's entries.
//
// Following the paper's representation suggestion ("We envision that
// directories could be represented as B-trees. Version numbers for gaps
// could be stored in fields in their bounding entries", section 5), each
// stored Entry carries both its own version number and the version number
// of the gap that immediately follows it (the open key range between this
// entry and its successor). The tree itself is replication-agnostic; gap
// semantics are maintained by package rep.
//
// All entries live in leaf nodes; leaves are doubly linked to support the
// predecessor/successor queries used by the DirSuiteDelete algorithm and
// ordered scans. The tree is not safe for concurrent use; callers
// serialize access (package rep holds a mutex and the Figure 7 range
// locks).
package btree

import (
	"slices"
	"sort"

	"repdir/internal/keyspace"
	"repdir/internal/version"
)

// Entry is one directory entry held by a representative.
type Entry struct {
	// Key identifies the entry; unique within a tree.
	Key keyspace.Key
	// Version is the entry's own version number.
	Version version.V
	// Value is the datum stored under Key. Sentinel entries carry no
	// meaningful value.
	Value string
	// GapAfter is the version number of the gap between this entry and
	// its in-tree successor.
	GapAfter version.V
}

// Tree is a B+tree of entries ordered by Entry.Key. Construct with New.
//
// Nodes are made with room for all they can hold, and a node a merge
// empties is kept for the next split: deleting and inserting around the
// same keys, which merges and splits the same nodes, allocates nothing.
type Tree struct {
	root   *node
	degree int
	length int
	spare  [2][]*node // emptied leaves [0] and inner nodes [1], at most maxSpare each
}

// maxSpare bounds the emptied nodes of each kind a tree keeps.
const maxSpare = 64

// node is either a leaf (children == nil) holding entries, or an inner
// node holding separator keys and children. Separator keys[i] bounds the
// subtrees: all keys in children[i] sort strictly before keys[i], and all
// keys in children[i+1] sort at or after it.
type node struct {
	entries []Entry
	next    *node
	prev    *node

	keys     []keyspace.Key
	children []*node
}

func (n *node) isLeaf() bool { return n.children == nil }

// size returns the occupancy used by the min/max invariants: entry count
// for leaves, separator-key count for inner nodes.
func (n *node) size() int {
	if n.isLeaf() {
		return len(n.entries)
	}
	return len(n.keys)
}

// DefaultDegree is the branching parameter used by New.
const DefaultDegree = 16

// New returns an empty tree with the default degree.
func New() *Tree { return NewWithDegree(DefaultDegree) }

// NewWithDegree returns an empty tree. degree is the minimum occupancy of
// a non-root node; nodes hold between degree-1 and 2*degree-1 items.
// Degrees below 2 are raised to 2.
func NewWithDegree(degree int) *Tree {
	if degree < 2 {
		degree = 2
	}
	return &Tree{root: &node{entries: []Entry{}}, degree: degree}
}

func (t *Tree) maxItems() int { return 2*t.degree - 1 }
func (t *Tree) minItems() int { return t.degree - 1 }

// Len returns the number of entries in the tree.
func (t *Tree) Len() int { return t.length }

// Get returns the entry stored under key.
func (t *Tree) Get(key keyspace.Key) (Entry, bool) {
	leaf := t.leafFor(key)
	i, ok := leaf.find(key)
	if !ok {
		return Entry{}, false
	}
	return leaf.entries[i], true
}

// Put inserts e or replaces the existing entry with the same key.
// It reports whether an existing entry was replaced.
func (t *Tree) Put(e Entry) bool {
	if t.root.size() >= t.maxItems() {
		t.growRoot()
	}
	replaced := t.insert(t.root, e)
	if !replaced {
		t.length++
	}
	return replaced
}

// Delete removes the entry stored under key and reports whether it was
// present.
func (t *Tree) Delete(key keyspace.Key) bool {
	deleted := t.delete(t.root, key)
	if deleted {
		t.length--
	}
	// Collapse a root that has become a pass-through inner node.
	if !t.root.isLeaf() && len(t.root.keys) == 0 {
		t.root = t.root.children[0]
	}
	return deleted
}

// Lower returns the entry with the largest key strictly less than key.
func (t *Tree) Lower(key keyspace.Key) (Entry, bool) {
	leaf := t.leafFor(key)
	// Index of first entry >= key within the leaf.
	i := sort.Search(len(leaf.entries), func(j int) bool {
		return !leaf.entries[j].Key.Less(key)
	})
	if i > 0 {
		return leaf.entries[i-1], true
	}
	for p := leaf.prev; p != nil; p = p.prev {
		if len(p.entries) > 0 {
			return p.entries[len(p.entries)-1], true
		}
	}
	return Entry{}, false
}

// AscendRange calls fn for every entry with lo <= key <= hi in ascending
// order, stopping early if fn returns false.
func (t *Tree) AscendRange(lo, hi keyspace.Key, fn func(Entry) bool) {
	leaf := t.leafFor(lo)
	i := sort.Search(len(leaf.entries), func(j int) bool {
		return !leaf.entries[j].Key.Less(lo)
	})
	for n := leaf; n != nil; n = n.next {
		for ; i < len(n.entries); i++ {
			e := n.entries[i]
			if hi.Less(e.Key) {
				return
			}
			if !fn(e) {
				return
			}
		}
		i = 0
	}
}

// AscendFloor calls fn for the entry with the largest key at or below key,
// if there is one, and then for every entry above it in ascending order,
// stopping early if fn returns false: one descent finds where a run of
// successors starts and the gap that precedes it.
func (t *Tree) AscendFloor(key keyspace.Key, fn func(Entry) bool) {
	n := t.leafFor(key)
	// Index of the first entry > key within the leaf; the floor is the
	// entry before it, in this leaf or at the end of an earlier one.
	i := sort.Search(len(n.entries), func(j int) bool {
		return key.Less(n.entries[j].Key)
	}) - 1
	for i < 0 && n.prev != nil {
		n = n.prev
		i = len(n.entries) - 1
	}
	if i < 0 {
		i = 0
	}
	for ; n != nil; n = n.next {
		for ; i < len(n.entries); i++ {
			if !fn(n.entries[i]) {
				return
			}
		}
		i = 0
	}
}

// DescendRange calls fn for every entry with lo <= key <= hi in
// descending order, stopping early if fn returns false.
func (t *Tree) DescendRange(hi, lo keyspace.Key, fn func(Entry) bool) {
	leaf := t.leafFor(hi)
	// Index of the last entry <= hi within the leaf.
	i := sort.Search(len(leaf.entries), func(j int) bool {
		return hi.Less(leaf.entries[j].Key)
	}) - 1
	for n := leaf; n != nil; {
		for ; i >= 0; i-- {
			e := n.entries[i]
			if e.Key.Less(lo) {
				return
			}
			if !fn(e) {
				return
			}
		}
		if n = n.prev; n != nil {
			i = len(n.entries) - 1
		}
	}
}

// Ascend calls fn for every entry in ascending order, stopping early if fn
// returns false.
func (t *Tree) Ascend(fn func(Entry) bool) {
	t.AscendRange(keyspace.Low(), keyspace.High(), fn)
}

// Between returns the entries with keys strictly between lo and hi.
func (t *Tree) Between(lo, hi keyspace.Key) []Entry {
	var out []Entry
	t.AscendRange(lo, hi, func(e Entry) bool {
		if lo.Less(e.Key) && e.Key.Less(hi) {
			out = append(out, e)
		}
		return true
	})
	return out
}

// DeleteBetween removes and returns every entry with key strictly between
// lo and hi.
func (t *Tree) DeleteBetween(lo, hi keyspace.Key) []Entry {
	victims := t.Between(lo, hi)
	for _, e := range victims {
		t.Delete(e.Key)
	}
	return victims
}

// Entries returns all entries in ascending order. Intended for tests,
// checkpoints, and small directories.
func (t *Tree) Entries() []Entry {
	out := make([]Entry, 0, t.length)
	t.Ascend(func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// --- internal machinery -------------------------------------------------

// find locates key within a leaf's entries.
func (n *node) find(key keyspace.Key) (int, bool) {
	i := sort.Search(len(n.entries), func(j int) bool {
		return !n.entries[j].Key.Less(key)
	})
	if i < len(n.entries) && n.entries[i].Key.Equal(key) {
		return i, true
	}
	return i, false
}

// childIndex returns the index of the child subtree that may contain key.
func (n *node) childIndex(key keyspace.Key) int {
	return sort.Search(len(n.keys), func(j int) bool {
		return key.Less(n.keys[j])
	})
}

// leafFor descends to the leaf whose key range covers key.
func (t *Tree) leafFor(key keyspace.Key) *node {
	n := t.root
	for !n.isLeaf() {
		n = n.children[n.childIndex(key)]
	}
	return n
}

// growRoot splits a full root, increasing tree height by one.
func (t *Tree) growRoot() {
	old := t.root
	t.root = t.newNode(false)
	t.root.children = append(t.root.children, old)
	t.splitChild(t.root, 0)
}

// insert adds e under n, which is guaranteed non-full.
func (t *Tree) insert(n *node, e Entry) bool {
	for {
		if n.isLeaf() {
			i, ok := n.find(e.Key)
			if ok {
				n.entries[i] = e
				return true
			}
			n.entries = slices.Insert(n.entries, i, e)
			return false
		}
		i := n.childIndex(e.Key)
		if n.children[i].size() >= t.maxItems() {
			t.splitChild(n, i)
			i = n.childIndex(e.Key)
		}
		n = n.children[i]
	}
}

// splitChild splits parent.children[i], which must be full, into two
// nodes, promoting a separator into parent (which must be non-full).
func (t *Tree) splitChild(parent *node, i int) {
	child := parent.children[i]
	var sep keyspace.Key
	var right *node
	if child.isLeaf() {
		mid := len(child.entries) / 2
		right = t.newNode(true)
		right.entries = append(right.entries, child.entries[mid:]...)
		right.next, right.prev = child.next, child
		child.entries = slices.Delete(child.entries, mid, len(child.entries))
		if right.next != nil {
			right.next.prev = right
		}
		child.next = right
		sep = right.entries[0].Key
	} else {
		mid := len(child.keys) / 2
		sep = child.keys[mid]
		right = t.newNode(false)
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.keys = slices.Delete(child.keys, mid, len(child.keys))
		child.children = slices.Delete(child.children, mid+1, len(child.children))
	}
	parent.keys = slices.Insert(parent.keys, i, sep)
	parent.children = slices.Insert(parent.children, i+1, right)
}

// newNode returns an empty leaf, or inner node, with room for as many
// items as it can hold.
func (t *Tree) newNode(leaf bool) *node {
	spare := &t.spare[0]
	if !leaf {
		spare = &t.spare[1]
	}
	if n := len(*spare); n > 0 {
		fresh := (*spare)[n-1]
		*spare = (*spare)[:n-1]
		return fresh
	}
	if leaf {
		return &node{entries: make([]Entry, 0, t.maxItems())}
	}
	return &node{keys: make([]keyspace.Key, 0, t.maxItems()), children: make([]*node, 0, t.maxItems()+1)}
}

// recycle keeps n, which a merge emptied, for a later newNode.
func (t *Tree) recycle(n *node) {
	spare := &t.spare[0]
	if !n.isLeaf() {
		spare = &t.spare[1]
	}
	if len(*spare) < maxSpare {
		*n = node{entries: slices.Delete(n.entries, 0, len(n.entries)),
			keys: slices.Delete(n.keys, 0, len(n.keys)), children: slices.Delete(n.children, 0, len(n.children))}
		*spare = append(*spare, n)
	}
}

// delete removes key from the subtree rooted at n. Every node descended
// into is first fixed to hold more than the minimum occupancy, so
// removal from a leaf never violates invariants above it.
func (t *Tree) delete(n *node, key keyspace.Key) bool {
	for {
		if n.isLeaf() {
			i, ok := n.find(key)
			if !ok {
				return false
			}
			n.entries = slices.Delete(n.entries, i, i+1)
			return true
		}
		i := n.childIndex(key)
		if n.children[i].size() <= t.minItems() {
			i = t.fixChild(n, i)
		}
		n = n.children[i]
	}
}

// fixChild ensures parent.children[i] holds more than minItems, borrowing
// from or merging with a sibling. It returns the possibly shifted index of
// the child that now covers the original child's key range.
func (t *Tree) fixChild(parent *node, i int) int {
	if i > 0 && parent.children[i-1].size() > t.minItems() {
		t.borrowFromLeft(parent, i)
		return i
	}
	if i < len(parent.children)-1 && parent.children[i+1].size() > t.minItems() {
		t.borrowFromRight(parent, i)
		return i
	}
	if i > 0 {
		t.mergeChildren(parent, i-1)
		return i - 1
	}
	t.mergeChildren(parent, i)
	return i
}

// borrowFromLeft moves one item from children[i-1] into children[i].
func (t *Tree) borrowFromLeft(parent *node, i int) {
	left, child := parent.children[i-1], parent.children[i]
	if child.isLeaf() {
		last := left.entries[len(left.entries)-1]
		left.entries = slices.Delete(left.entries, len(left.entries)-1, len(left.entries))
		child.entries = slices.Insert(child.entries, 0, last)
		parent.keys[i-1] = last.Key
		return
	}
	// Rotate through the parent separator.
	sep := parent.keys[i-1]
	lastKey := left.keys[len(left.keys)-1]
	lastChild := left.children[len(left.children)-1]
	left.keys = slices.Delete(left.keys, len(left.keys)-1, len(left.keys))
	left.children = slices.Delete(left.children, len(left.children)-1, len(left.children))
	child.keys = slices.Insert(child.keys, 0, sep)
	child.children = slices.Insert(child.children, 0, lastChild)
	parent.keys[i-1] = lastKey
}

// borrowFromRight moves one item from children[i+1] into children[i].
func (t *Tree) borrowFromRight(parent *node, i int) {
	child, right := parent.children[i], parent.children[i+1]
	if child.isLeaf() {
		first := right.entries[0]
		right.entries = slices.Delete(right.entries, 0, 1)
		child.entries = append(child.entries, first)
		parent.keys[i] = right.entries[0].Key
		return
	}
	sep := parent.keys[i]
	firstKey := right.keys[0]
	firstChild := right.children[0]
	right.keys = slices.Delete(right.keys, 0, 1)
	right.children = slices.Delete(right.children, 0, 1)
	child.keys = append(child.keys, sep)
	child.children = append(child.children, firstChild)
	parent.keys[i] = firstKey
}

// mergeChildren merges children[i+1] into children[i], removing the
// separator keys[i].
func (t *Tree) mergeChildren(parent *node, i int) {
	left, right := parent.children[i], parent.children[i+1]
	if left.isLeaf() {
		left.entries = append(left.entries, right.entries...)
		left.next = right.next
		if right.next != nil {
			right.next.prev = left
		}
	} else {
		left.keys = append(left.keys, parent.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	t.recycle(right)
	parent.keys = slices.Delete(parent.keys, i, i+1)
	parent.children = slices.Delete(parent.children, i+1, i+2)
}
