package core

import (
	"context"
	"errors"
	"fmt"

	"repdir/internal/keyspace"
	"repdir/internal/rep"
)

// RepairStats reports what RepairReplica did.
type RepairStats struct {
	// Scanned is the number of current entries examined.
	Scanned int
	// Copied is the number of entries installed on the target because
	// they were missing.
	Copied int
	// Freshened is the number of entries whose stale version/value on
	// the target was overwritten with the current one.
	Freshened int
	// Gaps is the number of gap segments coalesced on the target at
	// their current gap version.
	Gaps int
}

// Add folds another batch of repair work into the totals.
func (s *RepairStats) Add(o RepairStats) {
	s.Scanned += o.Scanned
	s.Copied += o.Copied
	s.Freshened += o.Freshened
	s.Gaps += o.Gaps
}

// DefaultRepairPageSize is the per-transaction page size RepairReplica
// uses when RepairOptions.PageSize is unset.
const DefaultRepairPageSize = 64

// RepairOptions tunes RepairReplica.
type RepairOptions struct {
	// PageSize is the number of segments repaired per transaction
	// (default DefaultRepairPageSize). Each page is its own transaction,
	// so the directory is never locked wholesale.
	PageSize int
	// OnPage, when non-nil, runs after each page's transaction commits,
	// with the cumulative stats so far. Returning a non-nil error stops
	// the repair and surfaces that error — the hook is the pacing and
	// cancellation point for anti-entropy.
	OnPage func(RepairStats) error
}

// RepairReplica makes the target fully current: every current entry
// installed at its current version and value, every ghost purged, and
// every gap version brought up to the quorum maximum. It serves every
// way a member falls behind — an outage that missed writes, a replica
// that lost its storage, a newcomer seeded by reconfiguration, a
// zero-vote hint — and repairs them alike. A recovered replica
// otherwise catches up only incidentally, when it lands in write
// quorums or serves as a coalesce bound, so a pass restores the read
// performance an outage cost (the paper's footnote 6). A replica that
// lost storage forgot not only entries but deletions, and a deletion
// lives only in gap versions, so copying entries alone would leave it
// answering version.Lowest for gaps it once knew dominated.
//
// The repair walks the keyspace left to right with a run (the Figure 12
// real-successor search), which already folds the quorum-maximum gap
// version over every range it crosses. For each segment between
// adjacent current entries it installs the upper entry on the target
// (versioned install, idempotent) and then coalesces the segment on the
// target with that maximum gap version — purging any ghosts the target
// still holds and installing a gap version that dominates everything
// ever deleted in the segment, because a read quorum said so under
// range locks (the paper's coalesce, §3 and Figure 13). Versions are
// never invented, only copied.
//
// Segments are paged PageSize per transaction; OnPage is the pacing
// hook. Safe to run while the suite is live — range locking serializes
// each page against concurrent operations — including against a target
// in recovering mode (its reads bounce, its writes land).
func RepairReplica(ctx context.Context, s *Suite, target rep.Directory, opts RepairOptions) (RepairStats, error) {
	target = s.wrapDir(target)
	pageSize := opts.PageSize
	if pageSize <= 0 {
		pageSize = DefaultRepairPageSize
	}
	var stats RepairStats
	after := keyspace.Low()
	for {
		// Batch-local stats are folded in only after the page commits, so
		// wait-die retries never double-count.
		var batch RepairStats
		var next keyspace.Key
		done := false
		err := s.runTxn(ctx, repairOps, func(tx *Tx) error {
			batch = RepairStats{}
			done = false
			answered := false // a call of the attempt by the target
			members, err := tx.readQuorum()
			if err != nil {
				return err
			}
			r := tx.newRun(members, after, false)
			k := after
			for segs := 0; segs < pageSize; segs++ {
				nb, err := r.next(ctx, pageSize-segs)
				if err != nil {
					return err
				}
				if err := repairSegment(ctx, tx, target, &answered, k, nb, &batch); err != nil {
					return err
				}
				if nb.key.IsHigh() {
					done = true
					return nil
				}
				k = nb.key
			}
			next = k
			return nil
		})
		if err != nil {
			return stats, fmt.Errorf("core: repair %s: %w", target.Name(), err)
		}
		stats.Add(batch)
		if opts.OnPage != nil {
			if err := opts.OnPage(stats); err != nil {
				return stats, err
			}
		}
		if done {
			return stats, nil
		}
		after = next
	}
}

// repairSegment brings one segment (lo, nb.key] up to date on the
// target: the upper bounding entry installed if nb.key is a real entry
// and the target holds it at a lower version or not at all, then the
// segment coalesced at the walk's quorum-maximum gap version. A
// recovering target refuses reads but accepts writes; it is treated as
// holding nothing, which is safe because the versioned install is
// idempotent. Once the target has answered a call of the attempt — or the
// walk's, as a member — its calls are continuing (rep/marks.go).
func repairSegment(ctx context.Context, tx *Tx, target rep.Directory, answered *bool, lo keyspace.Key, nb neighbor, stats *RepairStats) error {
	if err := tx.txn.Join(target); err != nil {
		return err
	}
	onward := func() context.Context {
		return tx.onward(ctx, *answered || tx.known&tx.suite.named(target.Name()) != 0)
	}
	if !nb.key.IsHigh() {
		stats.Scanned++
		have, err := target.Lookup(onward(), tx.txn.ID, nb.key)
		*answered = *answered || err == nil
		if errors.Is(err, rep.ErrRecovering) {
			have = rep.LookupResult{}
		} else if err != nil {
			tx.noteFailure(target.Name(), err)
			return err
		}
		if !have.Found || have.Version < nb.ver {
			if have.Found {
				stats.Freshened++
			} else {
				stats.Copied++
			}
			if err := target.Insert(onward(), tx.txn.ID, nb.key, nb.ver, nb.value); err != nil {
				tx.noteFailure(target.Name(), err)
				return err
			}
			tx.mutated, *answered = true, true
		}
	}
	if _, err := target.Coalesce(onward(), tx.txn.ID, lo, nb.key, nb.maxGap); err != nil {
		if errors.Is(err, rep.ErrMissingBound) {
			// lo vanished from the target since we installed it — a
			// concurrent Delete coalesced it away. That delete's own
			// coalesce already installed a dominating gap version across
			// this segment on the target, so skipping ours loses nothing.
			return nil
		}
		tx.noteFailure(target.Name(), err)
		return err
	}
	tx.mutated, *answered = true, true
	stats.Gaps++
	return nil
}
