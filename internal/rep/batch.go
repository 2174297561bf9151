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
	return r.neighborBatch(ctx, txn, key, max, below)
}

// SuccessorBatch is the mirror image of PredecessorBatch: up to max
// successive successors of key walking upward, element i's GapVersion
// being the gap between element i and the key below it.
//
// Under the neighborhood mark (marks.go) it is the paper's one call in
// full — "three successive DirRepPredecessor and DirRepSuccessor
// operations in a single message": the reply is what
// PredecessorBatch(key, max) returns, then key's own entry if one is
// stored (its GapVersion the gap above it), then what the unmarked call
// returns. Everything below key comes first, so the caller splits the
// reply at key (SplitAround). It locks RepLookup(y, z), y the lowest and
// z the highest key returned, in one acquisition, and counts as one
// probe.
func (r *Rep) SuccessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]NeighborResult, error) {
	if Around(ctx) {
		if key.IsSentinel() {
			return nil, fmt.Errorf("%w: neighborhood of %s", ErrNoNeighbor, key)
		}
		return r.neighborBatch(ctx, txn, key, max, around)
	}
	if key.IsHigh() {
		return nil, fmt.Errorf("%w: successor of HIGH", ErrNoNeighbor)
	}
	return r.neighborBatch(ctx, txn, key, max, above)
}

// SplitAround cuts a neighborhood of key, as the marked SuccessorBatch
// returns it, into what the three calls it stands for would have
// returned: the entries below key walking down, the Lookup of key — its
// entry if one is stored, else the version of the gap key lies in, which
// is the gap in front of the first entry above — and the entries above
// key walking up. A reply with nothing above key is malformed; its
// lookup is left zero and its upward run empty, for the caller's check
// of the runs to refuse.
func SplitAround(hood []NeighborResult, key keyspace.Key) (below []NeighborResult, at LookupResult, above []NeighborResult) {
	i := 0
	for i < len(hood) && hood[i].Key.Less(key) {
		i++
	}
	below, above = hood[:i], hood[i:]
	switch {
	case len(above) == 0:
	case above[0].Key.Equal(key):
		at, above = LookupResult{Found: true, Version: above[0].Version, Value: above[0].Value}, above[1:]
	default:
		at.Version = above[0].GapVersion
	}
	return below, at, above
}

// MaxBatch is the most neighbors one batch call returns on a side: the
// page of a range read. A caller that wants more asks again from the
// last key.
const MaxBatch = 64

// side is where the entries a batch call reads lie from its key.
type side int

const (
	above side = iota
	below
	around // both, and the key's own entry
)

// neighborBatch reads the run of entries on one side of key, or on
// both, in one pass over the tree, locks what it read, and reads again
// only if the store was written in between — then widening the lock
// until the run is stable under it.
func (r *Rep) neighborBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int, s side) ([]NeighborResult, error) {
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
	size := max
	if s == around {
		size = 2*max + 1
	}
	var out []NeighborResult
	var locked interval.Range
	held := false
	var read uint64 // r.writes when out was read
	for {
		r.mu.Lock()
		if err := r.undecided(txn); err != nil {
			r.mu.Unlock()
			return nil, err
		}
		r.txn(txn)
		if held && r.writes == read {
			// Nothing was written while the lock was waited for: what
			// was read then is what the lock now protects.
			r.mu.Unlock()
			return out, nil
		}
		if out == nil {
			out = make([]NeighborResult, 0, min(size, r.store.Len()))
		}
		out, read = out[:0], r.writes
		rng := interval.Point(key) // grows to the lowest and highest key read
		if s != above {
			// Every entry below key, with the gap above it.
			r.store.DescendRange(key, keyspace.Low(), func(e btree.Entry) bool {
				if e.Key.Less(key) {
					out = append(out, NeighborResult{Key: e.Key, Version: e.Version, Value: e.Value, GapVersion: e.GapAfter})
					rng.Lo = e.Key
				}
				return len(out) < max
			})
		}
		if s != below {
			// From the entry at or below key, whose gap reaches the
			// first successor: each entry above it, with the gap below.
			last := len(out) + max
			var gap version.V
			r.store.AscendFloor(key, func(e btree.Entry) bool {
				switch {
				case key.Less(e.Key):
					out = append(out, NeighborResult{Key: e.Key, Version: e.Version, Value: e.Value, GapVersion: gap})
					rng.Hi = e.Key
				case s == around && e.Key.Equal(key):
					out = append(out, NeighborResult{Key: e.Key, Version: e.Version, Value: e.Value, GapVersion: e.GapAfter})
					last++
				}
				gap = e.GapAfter
				return len(out) < last
			})
		}
		r.mu.Unlock()
		if len(out) == 0 {
			// Unreachable: LOW and HIGH are always stored.
			return nil, fmt.Errorf("rep: %s: no neighbor entry for %s", r.name, key)
		}
		if held && locked.ContainsRange(rng) {
			return out, nil
		}
		if err := r.locks.Acquire(ctx, txn, lock.ModeLookup, rng); err != nil {
			return nil, err
		}
		locked, held = rng, true
	}
}
