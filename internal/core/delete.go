package core

import (
	"context"
	"fmt"

	"repdir/internal/keyspace"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// neighbor is the result of a real-predecessor or real-successor search:
// a key that is current (present in the directory suite), its entry
// version and value, the largest gap version encountered while walking
// past ghosts, the number of walk iterations, and the number of neighbor
// RPCs issued (for the section 4 statistics and the batching ablation).
type neighbor struct {
	key    keyspace.Key
	value  string
	ver    version.V
	maxGap version.V
	steps  int
	rpcs   int
}

// chain caches one quorum member's batched neighbor replies during a
// walk. Replies are ordered in walk direction (descending keys for
// predecessor walks, ascending for successor walks) and consumed as the
// walk advances; when the cache runs out, another batch is fetched from
// the member. With fanout 1 this reduces to the paper's Figure 12: one
// DirRepPredecessor/DirRepSuccessor message per member per iteration.
type chain struct {
	member quorum.Member
	cached []rep.NeighborResult
	idx    int
}

// next returns the member's neighbor of k in walk direction, fetching a
// batch when the cache is exhausted. beyond reports whether a cached key
// still lies beyond k in walk direction; elements the walk has moved past
// are skipped and never revisited.
func (c *chain) next(ctx context.Context, k keyspace.Key, fanout int,
	fetch func(context.Context, quorum.Member, keyspace.Key, int) ([]rep.NeighborResult, error),
	beyond func(cand, k keyspace.Key) bool, rpcs *int) (rep.NeighborResult, error) {
	for c.idx < len(c.cached) && !beyond(c.cached[c.idx].Key, k) {
		c.idx++
	}
	if c.idx >= len(c.cached) {
		batch, err := fetch(ctx, c.member, k, fanout)
		if err != nil {
			return rep.NeighborResult{}, err
		}
		*rpcs++
		c.cached, c.idx = batch, 0
	}
	return c.cached[c.idx], nil
}

// realPredecessor implements the Figure 12 search, generalized to
// batched neighbor probes. Starting from x, it repeatedly takes the
// maximum per-member predecessor candidate and checks whether that
// candidate is current via a suite lookup; ghosts are skipped by
// continuing the walk from them. Every gap version encountered is folded
// into maxGap, which is what lets DirSuiteDelete assign the coalesced gap
// a version dominating everything in the range.
func (tx *Tx) realPredecessor(ctx context.Context, x keyspace.Key) (neighbor, error) {
	// The LOW sentinel has no predecessor. Answer locally instead of
	// probing: DirRepPredecessor(LOW) draws rep.ErrNoNeighbor from every
	// member, which would make the domain edge indistinguishable from a
	// failed search to callers that fall through to a neighboring shard.
	if x.IsLow() {
		return neighbor{key: x, ver: version.Lowest, maxGap: version.Lowest}, nil
	}
	members, err := tx.readQuorum()
	if err != nil {
		return neighbor{}, err
	}
	chains := make([]chain, len(members))
	for i, m := range members {
		chains[i].member = m
		tx.joinReader(m.Dir)
	}
	fetch := func(ctx context.Context, m quorum.Member, k keyspace.Key, fanout int) ([]rep.NeighborResult, error) {
		tx.msgs++
		batch, err := m.Dir.PredecessorBatch(ctx, tx.txn.ID, k, fanout)
		if err != nil {
			tx.noteFailure(m.Dir.Name(), err)
			return nil, fmt.Errorf("predecessor of %s at %s: %w", k, m.Dir.Name(), err)
		}
		return batch, nil
	}
	below := func(cand, k keyspace.Key) bool { return cand.Less(k) }

	sp := tx.span("pred-walk", x.Raw())
	defer sp.End()
	k := x
	maxGap := version.Lowest
	steps, rpcs := 0, 0
	for {
		steps++
		pred := keyspace.Low()
		for i := range chains {
			nb, err := chains[i].next(ctx, k, tx.suite.fanout, fetch, below, &rpcs)
			if err != nil {
				return neighbor{}, err
			}
			pred = keyspace.Max(pred, nb.Key)
			maxGap = version.Max(maxGap, nb.GapVersion)
		}
		if pred.IsLow() {
			// LOW is stored by every representative, so it is always
			// current; no quorum check is needed (or possible — its
			// version, LowestVersion, never wins a Figure 8 comparison).
			return neighbor{key: pred, ver: version.Lowest, maxGap: maxGap, steps: steps, rpcs: rpcs}, nil
		}
		cur, err := tx.suiteLookup(ctx, pred)
		if err != nil {
			return neighbor{}, err
		}
		if cur.Found {
			return neighbor{key: pred, value: cur.Value, ver: cur.Version,
				maxGap: maxGap, steps: steps, rpcs: rpcs}, nil
		}
		// pred is a ghost; keep walking down from it.
		k = pred
	}
}

// realSuccessor is the mirror image of realPredecessor.
func (tx *Tx) realSuccessor(ctx context.Context, x keyspace.Key) (neighbor, error) {
	// Mirror of realPredecessor's edge guard: HIGH has no successor.
	if x.IsHigh() {
		return neighbor{key: x, ver: version.Lowest, maxGap: version.Lowest}, nil
	}
	members, err := tx.readQuorum()
	if err != nil {
		return neighbor{}, err
	}
	chains := make([]chain, len(members))
	for i, m := range members {
		chains[i].member = m
		tx.joinReader(m.Dir)
	}
	fetch := func(ctx context.Context, m quorum.Member, k keyspace.Key, fanout int) ([]rep.NeighborResult, error) {
		tx.msgs++
		batch, err := m.Dir.SuccessorBatch(ctx, tx.txn.ID, k, fanout)
		if err != nil {
			tx.noteFailure(m.Dir.Name(), err)
			return nil, fmt.Errorf("successor of %s at %s: %w", k, m.Dir.Name(), err)
		}
		return batch, nil
	}
	above := func(cand, k keyspace.Key) bool { return k.Less(cand) }

	sp := tx.span("succ-walk", x.Raw())
	defer sp.End()
	k := x
	maxGap := version.Lowest
	steps, rpcs := 0, 0
	for {
		steps++
		succ := keyspace.High()
		for i := range chains {
			nb, err := chains[i].next(ctx, k, tx.suite.fanout, fetch, above, &rpcs)
			if err != nil {
				return neighbor{}, err
			}
			succ = keyspace.Min(succ, nb.Key)
			maxGap = version.Max(maxGap, nb.GapVersion)
		}
		if succ.IsHigh() {
			// HIGH is stored by every representative; see the LOW case
			// in realPredecessor.
			return neighbor{key: succ, ver: version.Lowest, maxGap: maxGap, steps: steps, rpcs: rpcs}, nil
		}
		cur, err := tx.suiteLookup(ctx, succ)
		if err != nil {
			return neighbor{}, err
		}
		if cur.Found {
			return neighbor{key: succ, value: cur.Value, ver: cur.Version,
				maxGap: maxGap, steps: steps, rpcs: rpcs}, nil
		}
		k = succ
	}
}

// Delete implements DirSuiteDelete (Figure 13) within the transaction.
func (tx *Tx) Delete(ctx context.Context, key string) error {
	x, err := validateKey(key)
	if err != nil {
		return err
	}
	members, err := tx.writeQuorum()
	if err != nil {
		return err
	}

	// Find the real successor and real predecessor of x.
	succ, err := tx.realSuccessor(ctx, x)
	if err != nil {
		return err
	}
	pred, err := tx.realPredecessor(ctx, x)
	if err != nil {
		return err
	}

	// The version number of the coalesced gap must be higher than the
	// maximum of any version numbers in the range coalesced.
	ver := version.Max(succ.maxGap, pred.maxGap)
	cur, err := tx.suiteLookup(ctx, x)
	if err != nil {
		return err
	}
	if !cur.Found {
		return fmt.Errorf("%w: %s", ErrKeyNotFound, x)
	}
	ver = version.Max(ver, cur.Version)

	// Make sure the predecessor and successor exist in every member of
	// the write quorum, copying them (with their current version and
	// value) where missing.
	insertions := 0
	boundSpan := tx.span("bound-copy", key)
	for _, m := range members {
		tx.txn.Join(m.Dir)
		for _, nb := range []neighbor{succ, pred} {
			tx.msgs++
			res, err := m.Dir.Lookup(ctx, tx.txn.ID, nb.key)
			if err != nil {
				tx.noteFailure(m.Dir.Name(), err)
				return fmt.Errorf("lookup bound %s at %s: %w", nb.key, m.Dir.Name(), err)
			}
			if res.Found {
				continue
			}
			tx.msgs++
			if err := m.Dir.Insert(ctx, tx.txn.ID, nb.key, nb.ver, nb.value); err != nil {
				tx.noteFailure(m.Dir.Name(), err)
				return fmt.Errorf("copy bound %s to %s: %w", nb.key, m.Dir.Name(), err)
			}
			tx.mutated = true
			insertions++
		}
	}
	boundSpan.End()

	// Coalesce the range in each member of the quorum.
	obs := DeleteObservation{
		Key:                  key,
		EntriesCoalesced:     make([]int, 0, len(members)),
		Insertions:           insertions,
		PredecessorWalkSteps: pred.steps,
		SuccessorWalkSteps:   succ.steps,
		NeighborRPCs:         pred.rpcs + succ.rpcs,
	}
	// In a point write the coalesce is the last thing the transaction
	// sends a member, and the bound lookups above have made the
	// transaction known to every one of them: it carries the prepare.
	// That puts a log force inside the call, so the calls go out as a
	// round, like an entry's writes, not one after the other.
	coalesceSpan := tx.span("coalesce", key)
	cctx := ctx
	if tx.shape == pointWrite {
		cctx = rep.MarkPrepare(ctx)
	}
	results := make([]rep.CoalesceResult, len(members))
	errs := make([]error, len(members))
	tx.fanOut(members, func(i int, m quorum.Member) {
		results[i], errs[i] = m.Dir.Coalesce(cctx, tx.txn.ID, pred.key, succ.key, ver.Next())
	})
	coalesceSpan.End()
	if err := tx.roundError(members, errs, "coalesce around", x); err != nil {
		return err
	}
	tx.mutated = true
	for i, m := range members {
		if tx.shape == pointWrite {
			tx.txn.Voted(m.Dir)
		}
		obs.EntriesCoalesced = append(obs.EntriesCoalesced, len(results[i].DeletedKeys))
		for _, dk := range results[i].DeletedKeys {
			if !dk.Equal(x) {
				obs.GhostDeletions++
			}
		}
	}
	tx.observations = append(tx.observations, obs)
	return nil
}
