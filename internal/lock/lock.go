// Package lock implements the type-specific range locking used by
// directory representatives (paper, section 3.1 and Figure 7).
//
// Two lock classes exist. Inquiry operations (DirRepLookup,
// DirRepPredecessor, DirRepSuccessor) take RepLookup(sigma, tau) locks on
// the closed key range they explicitly or implicitly read. Mutating
// operations (DirRepInsert, DirRepCoalesce) take RepModify(sigma, tau)
// locks. The Figure 7 compatibility relation reduces to: two locks
// conflict exactly when their ranges intersect and at least one of them is
// a RepModify lock — except that locks held by the same transaction never
// conflict with each other.
//
// Transactions follow strict two-phase locking: locks accumulate during
// the transaction and are released all at once by ReleaseAll at commit or
// abort, which (with [Traiger 82]) yields global serializability. A
// transaction that is one read here may give its single lock back with
// Release as soon as it has read: nothing it does later needs a lock.
//
// Deadlocks across representatives are avoided with the wait-die scheme:
// transaction IDs are timestamps; an older transaction waits for a younger
// conflicting holder, while a younger transaction "dies" immediately
// (Acquire returns ErrDie) and is expected to abort and retry with its
// original timestamp.
package lock

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repdir/internal/interval"
)

// Mode is a lock class from Figure 7.
type Mode int

const (
	// ModeLookup is the shared RepLookup(sigma, tau) class.
	ModeLookup Mode = iota + 1
	// ModeModify is the exclusive RepModify(sigma, tau) class.
	ModeModify
)

// String renders the mode with the paper's names.
func (m Mode) String() string {
	switch m {
	case ModeLookup:
		return "RepLookup"
	case ModeModify:
		return "RepModify"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// TxnID identifies a transaction. IDs are assigned from a monotonic
// counter, so a numerically smaller ID belongs to an older transaction;
// wait-die uses this order.
type TxnID uint64

// ErrDie is returned when wait-die decides the requesting (younger)
// transaction must abort rather than wait for an older holder. The caller
// should abort the whole transaction and retry it, reusing the original
// transaction ID so it eventually becomes the oldest and cannot die.
var ErrDie = errors.New("lock: wait-die abort (younger transaction must not wait)")

// Compatible reports whether a requested lock is compatible with a held
// lock according to Figure 7. Locks held by the same transaction are
// always compatible.
func Compatible(reqTxn TxnID, reqMode Mode, reqRange interval.Range,
	heldTxn TxnID, heldMode Mode, heldRange interval.Range) bool {
	if reqTxn == heldTxn {
		return true
	}
	if !reqRange.Intersects(heldRange) {
		return true
	}
	return reqMode == ModeLookup && heldMode == ModeLookup
}

// held is one granted lock.
type held struct {
	txn  TxnID
	mode Mode
	rng  interval.Range
}

// Stats counts lock-manager events; useful for the concurrency
// experiments.
type Stats struct {
	// Grants is the number of successful acquisitions.
	Grants uint64
	// Waits is the number of times a transaction blocked.
	Waits uint64
	// Dies is the number of wait-die aborts issued.
	Dies uint64
}

// Manager grants and releases range locks for one directory
// representative. Granted locks are indexed in an augmented interval
// treap so conflict checks cost expected O(log n) rather than a scan of
// every held lock, and each transaction's grants are chained through the
// treap's own nodes, which the index recycles: granting and releasing an
// uncontended lock allocates nothing. The zero value is not usable;
// construct with NewManager.
type Manager struct {
	mu      sync.Mutex
	idx     *index
	byTxn   map[TxnID]*inode // each transaction's newest grant; inode.next leads to the older ones
	waiters map[chan struct{}]struct{}
	stats   Stats
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		idx:     newIndex(),
		byTxn:   make(map[TxnID]*inode),
		waiters: make(map[chan struct{}]struct{}),
	}
}

// Acquire grants txn a lock of the given mode on rng, blocking while an
// incompatible lock is held by an older transaction. It returns ErrDie if
// wait-die requires txn to abort, or ctx.Err() if the context ends first.
func (m *Manager) Acquire(ctx context.Context, txn TxnID, mode Mode, rng interval.Range) error {
	_, err := m.AcquireOne(ctx, txn, mode, rng)
	return err
}

// Grant is one granted lock, held by a caller that gives it back itself.
// The node behind a grant is reused once the lock is released; seq is
// what tells this grant from the node's next.
type Grant struct {
	n   *inode
	seq uint64
}

// AcquireOne is Acquire for the lock of an operation that is the whole
// of its transaction at this representative. Such a transaction's lock
// point is that operation, so two-phase locking lets the lock go as
// soon as the operation has its answer: the caller passes the grant to
// Release, and no other lock held under the same ID is touched.
func (m *Manager) AcquireOne(ctx context.Context, txn TxnID, mode Mode, rng interval.Range) (Grant, error) {
	if !rng.Valid() {
		return Grant{}, fmt.Errorf("lock: invalid range %s", rng)
	}
	for {
		m.mu.Lock()
		conflict, anyConflict := m.idx.conflict(txn, mode, rng)
		if !anyConflict {
			n := m.idx.insert(held{txn: txn, mode: mode, rng: rng})
			n.next = m.byTxn[txn]
			m.byTxn[txn] = n
			m.stats.Grants++
			g := Grant{n, n.seq}
			m.mu.Unlock()
			return g, nil
		}
		if txn > conflict {
			// The requester is younger than some conflicting holder: die.
			m.stats.Dies++
			m.mu.Unlock()
			return Grant{}, ErrDie
		}
		// The requester is older than every conflicting holder: wait for a
		// release and retry.
		m.stats.Waits++
		ch := make(chan struct{})
		m.waiters[ch] = struct{}{}
		m.mu.Unlock()

		select {
		case <-ch:
		case <-ctx.Done():
			m.mu.Lock()
			delete(m.waiters, ch)
			m.mu.Unlock()
			return Grant{}, ctx.Err()
		}
	}
}

// Release gives back a lock granted by AcquireOne and wakes all
// waiters. A grant that ReleaseAll already swept is left alone.
func (m *Manager) Release(g Grant) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if g.n == nil || g.n.seq != g.seq {
		return
	}
	txn := g.n.lock.txn
	switch head := m.byTxn[txn]; {
	case head != g.n:
		for head.next != g.n {
			head = head.next
		}
		head.next = g.n.next
	case g.n.next == nil:
		delete(m.byTxn, txn)
	default:
		m.byTxn[txn] = g.n.next
	}
	m.idx.remove(g.n)
	m.wake()
}

// ReleaseAll drops every lock held by txn and wakes all waiters: strict
// two-phase locking releases at commit or abort. (Release is the one
// exception, for a lock that is all its transaction holds here.)
func (m *Manager) ReleaseAll(txn TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.byTxn[txn]
	if n == nil {
		return
	}
	for n != nil {
		next := n.next
		m.idx.remove(n)
		n = next
	}
	delete(m.byTxn, txn)
	m.wake()
}

// wake lets every waiter re-check for conflicts; callers hold m.mu.
func (m *Manager) wake() {
	for ch := range m.waiters {
		close(ch)
		delete(m.waiters, ch)
	}
}

// HeldBy returns the number of locks currently held by txn.
func (m *Manager) HeldBy(txn TxnID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	held := 0
	for n := m.byTxn[txn]; n != nil; n = n.next {
		held++
	}
	return held
}

// ActiveTransactions returns the number of transactions holding at least
// one lock.
func (m *Manager) ActiveTransactions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byTxn)
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
