// Hooks for layers that coordinate transactions across several suites —
// today the shard router (internal/shard), which runs one two-phase
// commit spanning a core.Tx per touched shard. The hooks expose exactly
// what an external coordinator needs and nothing else: binding a Tx to a
// caller-owned txn.Txn, reading the per-attempt outcome (mutated,
// failed members), and reusing the suite's retry classification and
// backoff so router retries behave like suite retries.

package core

import (
	"repdir/internal/quorum"
	"repdir/internal/txn"
)

// AttachTx binds a Tx on s to the externally managed transaction t.
// The caller owns t's lifecycle: it must call t.Commit or t.Abort itself
// (representatives the Tx touches join t automatically). Operations on
// the Tx avoid the members in exclude like a suite-managed attempt
// would; fold FailedMembers into it from one attempt to the next.
//
// The caller may keep nothing of the Tx past Discard: that is how it
// says nobody holds the Tx any longer, and the suite runs a later
// operation in the same memory. A caller that cannot say so — it handed
// the Tx, or something that leads to it, to code it does not control —
// does not call Discard, and the Tx is then safe to keep: once t is
// finished it refuses every operation with txn.ErrFinished, and its
// memory is never anyone else's.
//
// Member names must be unique across every suite attached to the same
// transaction: the transaction dedups participants by name, so a name
// collision would silently drop one suite's representative from
// two-phase commit.
func (s *Suite) AttachTx(t *txn.Txn, exclude quorum.Set) *Tx {
	tx := s.acquire()
	tx.begin(t, manyOps, exclude)
	return tx
}

// Discard gives an attached Tx's memory back to its suite; see AttachTx.
func (tx *Tx) Discard() { tx.suite.release(tx) }

// Mutated reports whether any operation on the Tx wrote representative
// state. A coordinator commits when any attached Tx mutated and may
// release a fully read-only transaction with an abort, exactly as
// suite-managed transactions do.
func (tx *Tx) Mutated() bool { return tx.mutated }

// FailedMembers returns the members, by index in the suite's
// configuration, that became unavailable during this attempt, for
// folding into the next attempt's exclusions.
func (tx *Tx) FailedMembers() quorum.Set { return tx.failed }
