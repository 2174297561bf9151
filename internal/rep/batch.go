package rep

import (
	"context"
	"fmt"

	"repdir/internal/btree"
	"repdir/internal/interval"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/version"
)

// PredecessorBatch returns up to max successive predecessors of key,
// walking downward: the first element is the entry immediately below key,
// the second the entry below that, and so on. Element i's GapVersion is
// the version of the gap between element i and the key above it (key for
// i = 0, element i-1 otherwise) — exactly what max successive
// DirRepPredecessor calls would have returned, but in one message.
//
// Section 4 of the paper observes that "if each member of a read quorum
// sends the results of three successive DirRepPredecessor and
// DirRepSuccessor operations in a single message, the real predecessor
// and real successor will often be located using one remote procedure
// call to each member of the quorum."
//
// Locks RepLookup(y, key) where y is the lowest key returned; fewer
// entries than max are returned only when LOW is reached. max must be
// positive, and is cut to MaxBatch: the count comes off the wire, and
// the reply is sized from it.
func (r *Rep) PredecessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]NeighborResult, error) {
	if key.IsLow() {
		return nil, fmt.Errorf("%w: predecessor of LOW", ErrNoNeighbor)
	}
	return r.neighborBatch(ctx, txn, key, max, true)
}

// SuccessorBatch is the mirror image of PredecessorBatch: up to max
// successive successors of key walking upward, element i's GapVersion
// being the gap between element i and the key below it.
func (r *Rep) SuccessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]NeighborResult, error) {
	if key.IsHigh() {
		return nil, fmt.Errorf("%w: successor of HIGH", ErrNoNeighbor)
	}
	return r.neighborBatch(ctx, txn, key, max, false)
}

// MaxBatch is the most neighbors one batch call returns: the page of a
// range read. A caller that wants more asks again from the last key.
const MaxBatch = 64

// neighborBatch reads the run of entries beyond key, downward or
// upward, in one pass over the tree, and widens the lock and reads
// again until the run is stable under it.
func (r *Rep) neighborBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int, down bool) ([]NeighborResult, error) {
	if max < 1 {
		return nil, fmt.Errorf("rep: batch size %d must be positive", max)
	}
	if err := r.checkEpoch(ctx); err != nil {
		return nil, err
	}
	if err := r.readable(); err != nil {
		return nil, err
	}
	r.stats.neighborProbes.Add(1)
	if max > MaxBatch {
		max = MaxBatch
	}
	out := make([]NeighborResult, 0, max)
	var lockedTo keyspace.Key
	locked := false
	for {
		r.mu.Lock()
		if err := r.undecided(txn); err != nil {
			r.mu.Unlock()
			return nil, err
		}
		r.touch(txn)
		out = out[:0]
		if down {
			// Every entry below key, with the gap above it.
			r.store.DescendRange(key, keyspace.Low(), func(e btree.Entry) bool {
				if e.Key.Less(key) {
					out = append(out, NeighborResult{Key: e.Key, Version: e.Version, Value: e.Value, GapVersion: e.GapAfter})
				}
				return len(out) < max
			})
		} else {
			// From the entry at or below key, whose gap reaches the
			// first successor: each entry above it, with the gap below.
			var gap version.V
			r.store.AscendFloor(key, func(e btree.Entry) bool {
				if key.Less(e.Key) {
					out = append(out, NeighborResult{Key: e.Key, Version: e.Version, Value: e.Value, GapVersion: gap})
				}
				gap = e.GapAfter
				return len(out) < max
			})
		}
		r.mu.Unlock()
		if len(out) == 0 {
			// Unreachable: LOW and HIGH are always stored.
			return nil, fmt.Errorf("rep: %s: no neighbor entry for %s", r.name, key)
		}
		last := out[len(out)-1].Key
		rng, covered := interval.Span(key, last), !lockedTo.Less(last)
		if down {
			rng, covered = interval.Span(last, key), !last.Less(lockedTo)
		}
		if locked && covered {
			return out, nil
		}
		if err := r.locks.Acquire(ctx, txn, lock.ModeLookup, rng); err != nil {
			return nil, err
		}
		lockedTo, locked = last, true
	}
}
