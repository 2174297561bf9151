package core

import (
	"context"
	"fmt"

	"repdir/internal/quorum"
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
	x, err := validateKey(key)
	if err != nil {
		return err
	}
	writers, err := tx.writeQuorum()
	if err != nil {
		return err
	}
	readers := writers
	if votesOf(writers) < tx.suite.cfg.R {
		if readers, err = tx.readQuorum(); err != nil {
			return err
		}
	}

	// Find the real successor and real predecessor of x, and x itself:
	// each reader's neighborhood of x, cut at x, starts the two runs and
	// answers the lookup.
	runs := [2]*run{tx.newRun(readers, x, false), tx.newRun(readers, x, true)}
	replies := make([]rep.LookupResult, len(readers))
	errs := make([]error, len(readers))
	around := rep.MarkAround(ctx)
	n := min(tx.suite.fanout, rep.MaxBatch) // each side; the wire admits no more
	sp := tx.span("delete-read", key)
	tx.fanOut(readers, func(i int, m quorum.Member) {
		var hood []rep.NeighborResult
		hood, errs[i] = m.Dir.SuccessorBatch(around, tx.txn.ID, x, n)
		runs[1].replies[i], replies[i], runs[0].replies[i] = rep.SplitAround(hood, x)
	})
	sp.End()
	if err := tx.roundError(readers, errs, "neighborhood of", x); err != nil {
		return err
	}
	for _, r := range runs {
		if err := r.load(x); err != nil {
			return err
		}
	}
	var bounds [2]neighbor
	for b, r := range runs {
		if bounds[b], err = r.next(ctx, tx.suite.fanout); err != nil {
			return err
		}
	}
	succ, pred := bounds[0], bounds[1]
	cur, err := tx.resolve(ctx, x, readers, replies)
	if err != nil {
		return err
	}
	if !cur.Found {
		return fmt.Errorf("%w: %s", ErrKeyNotFound, x)
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
	boundSpan := tx.span("bound-copy", key)
	var asked, copies []quorum.Member // one element per call
	var askedFor, copied []int        // which bound each call is about
	for _, m := range writers {
		tx.txn.Join(m.Dir)
		ri := indexOf(readers, m)
		for b := range bounds {
			switch {
			case ri < 0:
				asked, askedFor = append(asked, m), append(askedFor, b)
			case !runs[b].holds(ri):
				copies, copied = append(copies, m), append(copied, b)
			}
		}
	}
	if len(asked) > 0 {
		found := make([]rep.LookupResult, len(asked))
		errs := make([]error, len(asked))
		tx.fanOut(asked, func(i int, m quorum.Member) {
			found[i], errs[i] = m.Dir.Lookup(ctx, tx.txn.ID, bounds[askedFor[i]].key)
		})
		if err := tx.roundError(asked, errs, "lookup bound of", x); err != nil {
			return err
		}
		for i, m := range asked {
			if !found[i].Found {
				copies, copied = append(copies, m), append(copied, askedFor[i])
			}
		}
	}
	if len(copies) > 0 {
		errs := make([]error, len(copies))
		tx.fanOut(copies, func(i int, m quorum.Member) {
			nb := bounds[copied[i]]
			errs[i] = m.Dir.Insert(ctx, tx.txn.ID, nb.key, nb.ver, nb.value)
		})
		if err := tx.roundError(copies, errs, "copy bound of", x); err != nil {
			return err
		}
		tx.mutated = true
	}
	boundSpan.End()

	// Coalesce the range in each member of the quorum.
	obs := DeleteObservation{
		Key:                  key,
		EntriesCoalesced:     make([]int, 0, len(writers)),
		Insertions:           len(copies),
		PredecessorWalkSteps: runs[1].steps,
		SuccessorWalkSteps:   runs[0].steps,
		NeighborRPCs:         len(readers) + runs[0].rpcs + runs[1].rpcs,
	}
	// In a point write the coalesce is the last thing the transaction
	// sends a member, and the reads above have made the transaction
	// known to every one of them: it carries the prepare. That puts a
	// log force inside the call, so the calls go out as a round.
	coalesceSpan := tx.span("coalesce", key)
	cctx := ctx
	if tx.shape == pointWrite {
		cctx = rep.MarkPrepare(ctx)
	}
	results := make([]rep.CoalesceResult, len(writers))
	errs = make([]error, len(writers))
	tx.fanOut(writers, func(i int, m quorum.Member) {
		results[i], errs[i] = m.Dir.Coalesce(cctx, tx.txn.ID, pred.key, succ.key, ver.Next())
	})
	coalesceSpan.End()
	if err := tx.roundError(writers, errs, "coalesce around", x); err != nil {
		return err
	}
	tx.mutated = true
	for i, m := range writers {
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

// indexOf finds m among members by name, or returns -1.
func indexOf(members []quorum.Member, m quorum.Member) int {
	for i, r := range members {
		if r.Dir.Name() == m.Dir.Name() {
			return i
		}
	}
	return -1
}
