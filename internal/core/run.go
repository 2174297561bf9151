package core

import (
	"context"
	"fmt"

	"repdir/internal/keyspace"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// neighbor is one current entry found by a run — or the sentinel the run
// ends at — with the largest gap version crossed on the way to it from
// the current entry before it (or from the run's start).
type neighbor struct {
	key    keyspace.Key
	value  string
	ver    version.V
	maxGap version.V
}

// merge applies the paper's Figure 8 rule range-wise to one round of
// batched neighbor replies, one from each member of a read quorum and all
// to the same probe key.
//
// A reply lists the member's entries beyond the probe key in walk
// direction, each with the version of the gap in front of it, so up to
// its last key the member has answered for every key: with the entry's
// version where it holds an entry, with the version of the gap in front
// of its next entry where it does not. Up to the nearest of the last
// keys — the common span — every member has answered for every key,
// which is all a quorum lookup of that key would have learned. So each
// key some member holds an entry for is decided on the spot: the highest
// version wins, an entry's win makes the key current, a gap's makes it a
// ghost.
type merge struct {
	desc    bool
	members []member
	replies [][]rep.NeighborResult
	pos     []int     // per member: its first element not yet crossed
	maxGap  version.V // largest gap version crossed since the last current entry
}

// ahead reports whether a lies beyond b walking upward or, with desc,
// downward.
func ahead(desc bool, a, b keyspace.Key) bool {
	if desc {
		return a.Less(b)
	}
	return b.Less(a)
}

// load checks what the merge has in hand after a round of replies to the
// probe key from: each member's elements not yet crossed must advance
// strictly from it, or the merge would decide a key twice.
func (m *merge) load(from keyspace.Key) error {
	for i, reply := range m.replies {
		if m.pos[i] == len(reply) {
			return fmt.Errorf("core: neighbors of %s at %s: empty reply", from, m.members[i].Dir.Name())
		}
		at := from
		for _, e := range reply[m.pos[i]:] {
			if !ahead(m.desc, e.Key, at) {
				return fmt.Errorf("core: neighbors of %s at %s: %s after %s did not advance", from, m.members[i].Dir.Name(), e.Key, at)
			}
			at = e.Key
		}
	}
	return nil
}

// outranks is Figure 8's comparison: a strictly larger version wins.
// Version dominance (section 3.3) makes current data outrank stale data,
// so ties occur only between equally current replies — and there a store
// member's is preferred to a witness's, whose value is blank.
func outranks(members []member, i int, v version.V, best int, bestV version.V) bool {
	return v > bestV || (best >= 0 && v == bestV && members[best].Witness && !members[i].Witness)
}

// next decides the nearest undecided key of the common span for which
// some member holds an entry. It returns the key, whether it is current
// and, if so, the element of the reply that won; ok is false when the
// common span is used up. The sentinel that ends the keyspace is stored
// by every member and always current.
func (m *merge) next() (key keyspace.Key, won *rep.NeighborResult, holder int, ok bool) {
	for i := range m.replies {
		if m.pos[i] == len(m.replies[i]) {
			// This member has said nothing about keys beyond here.
			return keyspace.Key{}, nil, -1, false
		}
		if k := m.replies[i][m.pos[i]].Key; i == 0 || ahead(m.desc, key, k) {
			key = k
		}
	}
	holder, best := -1, version.Lowest
	for i := range m.replies {
		e := &m.replies[i][m.pos[i]]
		// Whether e is the key's entry or the next one beyond it, the gap
		// in front of e lies on the way.
		m.maxGap = version.Max(m.maxGap, e.GapVersion)
		if !e.Key.Equal(key) {
			if outranks(m.members, i, e.GapVersion, holder, best) {
				holder, best, won = i, e.GapVersion, nil
			}
			continue
		}
		m.pos[i]++
		if key.IsSentinel() || outranks(m.members, i, e.Version, holder, best) {
			holder, best, won = i, e.Version, e
		}
	}
	return key, won, holder, true
}

// answer is what member i said about key, the last key next decided: its
// entry's version, or the version of its gap there.
func (m *merge) answer(i int, key keyspace.Key) (ver version.V, holds bool) {
	if p := m.pos[i]; p > 0 && m.replies[i][p-1].Key.Equal(key) {
		return m.replies[i][p-1].Version, true
	}
	return m.replies[i][m.pos[i]].GapVersion, false
}

// run is an ordered traversal of the current entries beyond a key,
// upward or downward: the one primitive under scans, counts, neighbor
// queries, the delete's real-neighbor search (Figure 12) and repair. It
// asks one read quorum for batches of neighbors, a round at a time, and
// merges each round's replies; the members' locks on what they returned
// are held until the transaction ends, so a scan is a snapshot.
type run struct {
	merge
	tx   *Tx
	at   keyspace.Key // every key between the start and at is decided
	errs []error
	// ask and which are the members a round is sent to and their places
	// in the quorum.
	ask   []member
	which []int
	// steps counts the keys decided and rpcs the batch calls sent: the
	// section 4 statistics of a delete's search.
	steps, rpcs int
}

// newRun prepares a traversal from a key, exclusive, over a read quorum.
// The run is the Tx's one for that direction, and members the Tx's too:
// both stand until the next run that way, or quorum of that kind.
func (tx *Tx) newRun(members []member, from keyspace.Key, desc bool) *run {
	for _, m := range members {
		tx.joinReader(m.Dir)
	}
	r, n := &tx.runs[0], len(members)
	if desc {
		r = &tx.runs[1]
	}
	*r = run{
		merge: merge{desc: desc, members: members, replies: slots(r.replies, n), pos: slots(r.pos, n), maxGap: version.Lowest},
		tx:    tx,
		at:    from,
		errs:  slots(r.errs, n),
		ask:   r.ask[:0],
		which: r.which[:0],
	}
	return r
}

// probe asks member i for its next n neighbors beyond r.at; n is cut to
// the page the representatives serve.
func (r *run) probe(ctx context.Context, i, n int) {
	n = max(1, min(n, rep.MaxBatch))
	d := r.members[i].Dir
	if r.desc {
		r.replies[i], r.errs[i] = d.PredecessorBatch(ctx, r.tx.txn.ID, r.at, n)
	} else {
		r.replies[i], r.errs[i] = d.SuccessorBatch(ctx, r.tx.txn.ID, r.at, n)
	}
	r.pos[i] = 0
}

// next returns the next current entry beyond the one it returned last,
// or the sentinel when there is none; the caller must not go on past the
// sentinel. When the common span is used up it sends one more round: it
// asks each member whose reply is used up — the others' reach further —
// for n neighbors from where the span ended.
func (r *run) next(ctx context.Context, n int) (neighbor, error) {
	for {
		key, won, holder, ok := r.merge.next()
		if !ok {
			r.ask, r.which = r.ask[:0], r.which[:0]
			for i, m := range r.members {
				if r.pos[i] == len(r.replies[i]) {
					r.ask, r.which = append(r.ask, m), append(r.which, i)
				}
			}
			r.tx.round = round{kind: callNeighbors, ctx: ctx, run: r, n: n}
			r.tx.fanOut(r.ask)
			r.rpcs += len(r.ask)
			if err := r.tx.roundError(r.members, r.errs, "neighbors of", r.at); err != nil {
				return neighbor{}, err
			}
			if err := r.load(r.at); err != nil {
				return neighbor{}, err
			}
			continue
		}
		r.at = key
		r.steps++
		if won == nil {
			continue // a ghost: some member's gap there is newer than every entry
		}
		nb := neighbor{key: key, value: won.Value, ver: won.Version, maxGap: r.maxGap}
		r.maxGap = version.Lowest
		if key.IsSentinel() {
			return nb, nil
		}
		if r.members[holder].Witness {
			// A witness holds the version but no value: fetch it from a
			// store member outside the quorum, as a lookup does.
			res, err := r.tx.chaseValue(ctx, key, rep.LookupResult{Found: true, Version: nb.ver}, r.members)
			if err != nil {
				return neighbor{}, err
			}
			nb.value, nb.ver = res.Value, res.Version
		}
		return nb, nil
	}
}

// holds reports whether member i holds an entry, at any version, for the
// key next returned last: whether it can bound a coalesce there as it is.
func (r *run) holds(i int) bool {
	_, holds := r.answer(i, r.at)
	return holds
}
