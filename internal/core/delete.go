package core

import (
	"context"
	"fmt"

	"repdir/internal/rep"
	"repdir/internal/version"
)

// Delete implements DirSuiteDelete (Figure 13) within the transaction.
//
// Its reads — the real-successor and real-predecessor searches of Figure
// 12, each a run, and the lookup of the key itself — are one call to
// each reader, the neighborhood read of section 4 (rep.MarkAround), and
// go to the members of the write quorum where their votes make a read
// quorum too: what a member's own reply shows of the bounds then need
// not be asked again, and no member is left that only read. So a delete
// is read, coalesce, commit: three rounds, as many messages as an
// insert, where no ghost hides the neighbors and no writer lacks one.
func (tx *Tx) Delete(ctx context.Context, key string) error {
	_, err := tx.delete(ctx, key)
	return err
}

// delete is Delete, returning the version of the gap it coalesces.
func (tx *Tx) delete(ctx context.Context, key string) (version.V, error) {
	x, err := validateKey(key)
	if err != nil {
		return version.Lowest, err
	}
	writers, err := tx.writeQuorum()
	if err != nil {
		return version.Lowest, err
	}
	readers := writers
	if votesOf(writers) < tx.suite.cfg.R {
		if readers, err = tx.readQuorum(); err != nil {
			return version.Lowest, err
		}
	}

	// Find the real successor and real predecessor of x, and x itself:
	// each reader's neighborhood of x, cut at x, starts the two runs and
	// answers the lookup.
	runs := [2]*run{tx.newRun(readers, x, false), tx.newRun(readers, x, true)}
	tx.replies = slots(tx.replies, len(readers))
	n := min(tx.suite.fanout, rep.MaxBatch) // each side; the wire admits no more
	tx.round = round{kind: callAround, ctx: tx.mark(ctx, rep.AroundMark), key: x, n: n}
	tx.fanOut(readers)
	if err := tx.roundError(readers, tx.errs, "neighborhood of", x); err != nil {
		return version.Lowest, err
	}
	for _, r := range runs {
		if err := r.load(x); err != nil {
			return version.Lowest, err
		}
	}
	var bounds [2]neighbor
	for b, r := range runs {
		if bounds[b], err = r.next(ctx, tx.suite.fanout); err != nil {
			return version.Lowest, err
		}
	}
	succ, pred := bounds[0], bounds[1]
	cur, err := tx.resolve(ctx, x, readers, tx.replies)
	if err != nil {
		return version.Lowest, err
	}
	if !cur.Found {
		return version.Lowest, fmt.Errorf("%w: %s", ErrKeyNotFound, x)
	}
	// The version number of the coalesced gap must be higher than the
	// maximum of any version numbers in the range coalesced.
	ver := version.Max(version.Max(succ.maxGap, pred.maxGap), cur.Version)

	// Make sure the predecessor and successor exist in every member of
	// the write quorum, copying them (with their current version and
	// value) where missing. A writer that served the read round has shown
	// whether it holds them; the others are asked, in one round — about
	// both bounds whatever they are, which also makes the transaction
	// known to them before the coalesce.
	// One element per call, and which bound each call is about.
	tx.asked, tx.askedFor, tx.copies, tx.copied = tx.asked[:0], tx.askedFor[:0], tx.copies[:0], tx.copied[:0]
	for _, m := range writers {
		if err := tx.txn.Join(m.Dir); err != nil {
			return version.Lowest, err
		}
		ri := indexOf(readers, m)
		for b := range bounds {
			switch {
			case ri < 0:
				tx.asked, tx.askedFor = append(tx.asked, m), append(tx.askedFor, b)
			case !runs[b].holds(ri):
				tx.copies, tx.copied = append(tx.copies, m), append(tx.copied, b)
			}
		}
	}
	if len(tx.asked) > 0 {
		tx.replies = slots(tx.replies, len(tx.asked))
		tx.round = round{kind: callBoundLookup, ctx: ctx, bounds: bounds}
		tx.fanOut(tx.asked)
		if err := tx.roundError(tx.asked, tx.errs, "lookup bound of", x); err != nil {
			return version.Lowest, err
		}
		for i, m := range tx.asked {
			if !tx.replies[i].Found {
				tx.copies, tx.copied = append(tx.copies, m), append(tx.copied, tx.askedFor[i])
			}
		}
	}
	if len(tx.copies) > 0 {
		tx.round = round{kind: callBoundCopy, ctx: ctx, bounds: bounds}
		tx.fanOut(tx.copies)
		if err := tx.roundError(tx.copies, tx.errs, "copy bound of", x); err != nil {
			return version.Lowest, err
		}
		tx.mutated = true
	}

	// Coalesce the range in each member of the quorum.
	// In a point write the coalesce is the last thing the transaction
	// sends a member, and the reads above have made the transaction
	// known to every one of them: it carries the prepare. That puts a
	// log force inside the call, so the calls go out as a round.
	tx.round = round{kind: callCoalesce, ctx: ctx, key: pred.key, hi: succ.key, ver: ver.Next()}
	if tx.shape == pointWrite {
		tx.round.ctx = tx.mark(ctx, rep.PrepareMark)
	}
	tx.coalesced = slots(tx.coalesced, len(writers))
	tx.fanOut(writers)
	if err := tx.roundError(writers, tx.errs, "coalesce around", x); err != nil {
		return version.Lowest, err
	}
	tx.mutated = true
	tx.learned = append(tx.learned, learned{x.Raw(), hint{false, ver.Next()}})
	if tx.shape == pointWrite {
		for _, m := range writers {
			tx.txn.Voted(m.Dir)
		}
	}
	if tx.suite.metrics == nil {
		return ver.Next(), nil // nobody to report the section 4 statistics to
	}
	obs := DeleteObservation{
		Key:                  key,
		EntriesCoalesced:     make([]int, 0, len(writers)),
		Insertions:           len(tx.copies),
		PredecessorWalkSteps: runs[1].steps,
		SuccessorWalkSteps:   runs[0].steps,
		NeighborRPCs:         len(readers) + runs[0].rpcs + runs[1].rpcs,
	}
	for _, res := range tx.coalesced {
		obs.EntriesCoalesced = append(obs.EntriesCoalesced, len(res.DeletedKeys))
		for _, dk := range res.DeletedKeys {
			if !dk.Equal(x) {
				obs.GhostDeletions++
			}
		}
	}
	tx.observations = append(tx.observations, obs)
	return ver.Next(), nil
}

// indexOf finds m among members, or returns -1.
func indexOf(members []member, m member) int {
	for i, r := range members {
		if r.idx == m.idx {
			return i
		}
	}
	return -1
}
