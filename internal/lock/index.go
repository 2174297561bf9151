package lock

import (
	"math/rand"

	"repdir/internal/interval"
	"repdir/internal/keyspace"
)

// index holds the granted locks in an augmented interval treap: a
// randomized binary search tree ordered by (range low endpoint, insertion
// sequence), where every node also carries the maximum high endpoint in
// its subtree. Intersection queries prune subtrees whose maxHi sorts
// below the probe range, giving expected O(log n + matches) conflict
// checks instead of the naive linear scan (which is retained as
// naiveConflict for property testing).
type index struct {
	root *inode
	rng  *rand.Rand
	seq  uint64
	free *inode // removed nodes, for insert to use again
}

// inode is one granted lock in the treap.
type inode struct {
	lock     held
	seq      uint64 // tie-breaker making keys unique; zero on the free list
	priority int64
	maxHi    keyspace.Key
	left     *inode
	right    *inode
	// next is the Manager's: the same transaction's previous grant. On
	// the free list it is the next free node.
	next *inode
}

// newIndex builds an empty index with a deterministic priority source.
func newIndex() *index {
	return &index{rng: rand.New(rand.NewSource(0x51ED))}
}

// less orders nodes by (lock range low endpoint, sequence).
func (n *inode) lessThan(lo keyspace.Key, seq uint64) bool {
	if c := n.lock.rng.Lo.Compare(lo); c != 0 {
		return c < 0
	}
	return n.seq < seq
}

// fix recomputes the maxHi augmentation from children.
func (n *inode) fix() {
	n.maxHi = n.lock.rng.Hi
	if n.left != nil && n.maxHi.Less(n.left.maxHi) {
		n.maxHi = n.left.maxHi
	}
	if n.right != nil && n.maxHi.Less(n.right.maxHi) {
		n.maxHi = n.right.maxHi
	}
}

// insert adds a granted lock and returns its node (kept by the caller
// for O(log n) deletion on release).
func (ix *index) insert(h held) *inode {
	ix.seq++
	n := ix.free
	if n == nil {
		n = new(inode)
	} else {
		ix.free = n.next
	}
	*n = inode{lock: h, seq: ix.seq, priority: ix.rng.Int63()}
	n.fix()
	ix.root = insertNode(ix.root, n)
	return n
}

// insertNode is the standard treap insertion with rotations restoring
// the heap property on priorities.
func insertNode(root, n *inode) *inode {
	if root == nil {
		return n
	}
	if n.lessThan(root.lock.rng.Lo, root.seq) {
		root.left = insertNode(root.left, n)
		if root.left.priority > root.priority {
			root = rotateRight(root)
		}
	} else {
		root.right = insertNode(root.right, n)
		if root.right.priority > root.priority {
			root = rotateLeft(root)
		}
	}
	root.fix()
	return root
}

// remove deletes the exact node (matched by key and sequence) and keeps
// it for the next insert: the caller must not use it again.
func (ix *index) remove(n *inode) {
	ix.root = removeNode(ix.root, n)
	*n = inode{next: ix.free}
	ix.free = n
}

func removeNode(root, n *inode) *inode {
	if root == nil {
		return nil
	}
	switch {
	case root.seq == n.seq:
		// Rotate the victim down until it is a leaf.
		if root.left == nil {
			return root.right
		}
		if root.right == nil {
			return root.left
		}
		if root.left.priority > root.right.priority {
			root = rotateRight(root)
			root.right = removeNode(root.right, n)
		} else {
			root = rotateLeft(root)
			root.left = removeNode(root.left, n)
		}
	case n.lessThan(root.lock.rng.Lo, root.seq):
		root.left = removeNode(root.left, n)
	default:
		root.right = removeNode(root.right, n)
	}
	root.fix()
	return root
}

func rotateRight(n *inode) *inode {
	l := n.left
	n.left = l.right
	l.right = n
	n.fix()
	l.fix()
	return l
}

func rotateLeft(n *inode) *inode {
	r := n.right
	n.right = r.left
	r.left = n
	n.fix()
	r.fix()
	return r
}

// conflict returns the oldest holder incompatible with the request,
// pruning by the maxHi augmentation: a subtree whose maximum high
// endpoint sorts below rng.Lo cannot intersect rng, and a node whose low
// endpoint sorts above rng.Hi rules out its entire right subtree.
func (ix *index) conflict(txn TxnID, mode Mode, rng interval.Range) (TxnID, bool) {
	var minID TxnID
	found := false
	var walk func(n *inode)
	walk = func(n *inode) {
		if n == nil || n.maxHi.Less(rng.Lo) {
			return
		}
		walk(n.left)
		if !Compatible(txn, mode, rng, n.lock.txn, n.lock.mode, n.lock.rng) {
			if !found || n.lock.txn < minID {
				minID = n.lock.txn
				found = true
			}
		}
		if !rng.Hi.Less(n.lock.rng.Lo) {
			walk(n.right)
		}
	}
	walk(ix.root)
	return minID, found
}
