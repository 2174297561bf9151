package core

import (
	"context"
	"errors"
	"fmt"

	"repdir/internal/keyspace"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// RepairStats reports what RepairReplica or ReconcileReplica did.
type RepairStats struct {
	// Scanned is the number of current entries examined.
	Scanned int
	// Copied is the number of entries installed on the target because
	// they were missing.
	Copied int
	// Freshened is the number of entries whose stale version/value on
	// the target was overwritten with the current one.
	Freshened int
	// Gaps is the number of gap segments whose current version was
	// installed on the target (ReconcileReplica only; RepairReplica
	// leaves gap versions alone).
	Gaps int
}

// add folds another batch of repair work into the totals.
func (s *RepairStats) add(o RepairStats) {
	s.Scanned += o.Scanned
	s.Copied += o.Copied
	s.Freshened += o.Freshened
	s.Gaps += o.Gaps
}

// DefaultRepairPageSize is the per-transaction page size RepairReplica
// uses when RepairOptions.PageSize is unset.
const DefaultRepairPageSize = 64

// RepairOptions tunes RepairReplicaOpts.
type RepairOptions struct {
	// PageSize is the number of current entries repaired per
	// transaction (default DefaultRepairPageSize). Each page is its own
	// transaction, so the directory is never locked wholesale.
	PageSize int
	// OnPage, when non-nil, runs after each page's transaction commits,
	// with the cumulative stats so far. Returning a non-nil error stops
	// the repair and surfaces that error — the hook is the pacing and
	// cancellation point for background anti-entropy (package heal).
	OnPage func(RepairStats) error
}

// RepairReplica brings one representative's entries up to date with the
// suite: every current entry missing from the target is copied, and
// every stale copy is freshened to the current version and value.
//
// A recovered replica otherwise catches up only incidentally — when it
// lands in write quorums or serves as a coalesce bound — so a repair
// pass restores full read performance after an outage (the paper's
// footnote 6: failures that change quorums cost only performance; this
// recovers that performance).
//
// Repair uses ordinary versioned inserts, so it is safe to run while the
// suite is live: installing a current (version, value) pair at a replica
// is exactly the bound-copying step of DirSuiteDelete, and range locking
// serializes it against concurrent operations. Each entry is repaired in
// its own transaction so the directory is never locked wholesale. Ghost
// entries and stale gap versions on the target are left alone — they are
// harmless by version dominance and are reclaimed by future coalesces.
func RepairReplica(ctx context.Context, s *Suite, target rep.Directory) (RepairStats, error) {
	return RepairReplicaOpts(ctx, s, target, RepairOptions{})
}

// RepairReplicaOpts is RepairReplica with paging and pacing control.
func RepairReplicaOpts(ctx context.Context, s *Suite, target rep.Directory, opts RepairOptions) (RepairStats, error) {
	target = s.wrapDir(target)
	pageSize := opts.PageSize
	if pageSize <= 0 {
		pageSize = DefaultRepairPageSize
	}
	var stats RepairStats
	after := ""
	for {
		// One page of current entries per repair batch. Batch-local
		// stats are folded in only after the batch commits, so wait-die
		// retries never double-count.
		var page []KV
		var batch RepairStats
		err := s.runTxn(ctx, OpRepair, repairOps, func(tx *Tx) error {
			batch = RepairStats{}
			var err error
			page, err = tx.Scan(ctx, after, pageSize)
			if err != nil {
				return err
			}
			for _, kv := range page {
				if err := repairEntry(ctx, tx, target, kv.Key, &batch); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return stats, fmt.Errorf("core: repair %s: %w", target.Name(), err)
		}
		stats.add(batch)
		if opts.OnPage != nil {
			if err := opts.OnPage(stats); err != nil {
				return stats, err
			}
		}
		// A short page means the scan reached the end of the directory:
		// stop here instead of paying one extra empty-scan transaction.
		if len(page) < pageSize {
			return stats, nil
		}
		after = page[len(page)-1].Key
	}
}

// ReconcileReplica makes the target fully current: every current entry
// installed at its current version and value, every ghost purged, and —
// unlike RepairReplica — every gap version brought up to the quorum
// maximum. It is the rebuild path for a replica that lost storage: such
// a replica forgot not only entries but deletions, and a deletion lives
// only in gap versions, so copying entries alone would leave the
// replica answering version.Lowest for gaps it once knew dominated.
//
// The reconcile walks the keyspace left to right with a run (the Figure
// 12 real-successor search), which already folds the quorum-maximum gap
// version over every range it crosses. For each segment between
// adjacent current entries it installs the upper entry on the target
// (versioned install, idempotent) and then coalesces the segment on the
// target with that maximum gap version — purging any ghosts the target
// still holds and installing a gap version that dominates everything
// ever deleted in the segment, because a read quorum said so under
// range locks. Versions are never invented, only copied.
//
// Segments are paged PageSize per transaction, so the directory is
// never locked wholesale; OnPage is the pacing hook, as in
// RepairReplicaOpts. Safe to run while the suite is live, including
// against a target in recovering mode (its reads bounce, its writes
// land).
func ReconcileReplica(ctx context.Context, s *Suite, target rep.Directory, opts RepairOptions) (RepairStats, error) {
	target = s.wrapDir(target)
	pageSize := opts.PageSize
	if pageSize <= 0 {
		pageSize = DefaultRepairPageSize
	}
	var stats RepairStats
	after := keyspace.Low()
	for {
		var batch RepairStats
		var next keyspace.Key
		done := false
		err := s.runTxn(ctx, OpRepair, repairOps, func(tx *Tx) error {
			batch = RepairStats{}
			done = false
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
				if err := reconcileSegment(ctx, tx, target, k, nb, &batch); err != nil {
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
			return stats, fmt.Errorf("core: reconcile %s: %w", target.Name(), err)
		}
		stats.add(batch)
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

// reconcileSegment brings one segment (lo, nb.key] up to date on the
// target: the upper bounding entry installed if nb.key is a real entry,
// then the segment coalesced at the walk's quorum-maximum gap version.
func reconcileSegment(ctx context.Context, tx *Tx, target rep.Directory, lo keyspace.Key, nb neighbor, stats *RepairStats) error {
	if err := tx.txn.Join(target); err != nil {
		return err
	}
	if !nb.key.IsHigh() {
		batch := RepairStats{}
		if err := repairInstall(ctx, tx, target, nb.key, nb.ver, nb.value, &batch); err != nil {
			return err
		}
		stats.add(batch)
	}
	tx.msgs++
	if _, err := target.Coalesce(ctx, tx.txn.ID, lo, nb.key, nb.maxGap); err != nil {
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
	tx.mutated = true
	stats.Gaps++
	return nil
}

// repairInstall performs the shared versioned-install step: look up what
// the target holds and install (ver, value) if it is newer. A recovering
// target refuses reads but accepts writes; it is treated as holding
// nothing, which is safe because the versioned install is idempotent.
func repairInstall(ctx context.Context, tx *Tx, target rep.Directory, k keyspace.Key, ver version.V, value string, stats *RepairStats) error {
	stats.Scanned++
	tx.msgs++
	have, err := target.Lookup(ctx, tx.txn.ID, k)
	if errors.Is(err, rep.ErrRecovering) {
		have = rep.LookupResult{}
	} else if err != nil {
		tx.noteFailure(target.Name(), err)
		return err
	}
	switch {
	case have.Found && have.Version >= ver:
		return nil
	case have.Found:
		stats.Freshened++
	default:
		stats.Copied++
	}
	tx.msgs++
	if err := target.Insert(ctx, tx.txn.ID, k, ver, value); err != nil {
		tx.noteFailure(target.Name(), err)
		return err
	}
	tx.mutated = true
	return nil
}

// repairEntry reconciles one key on the target within the transaction.
func repairEntry(ctx context.Context, tx *Tx, target rep.Directory, key string, stats *RepairStats) error {
	k := keyspace.New(key)
	// Current state, by quorum.
	cur, err := tx.suiteLookup(ctx, k)
	if err != nil {
		return err
	}
	if !cur.Found {
		// Deleted between the scan and now; nothing to install.
		stats.Scanned++
		return nil
	}
	if err := tx.txn.Join(target); err != nil {
		return err
	}
	return repairInstall(ctx, tx, target, k, cur.Version, cur.Value, stats)
}
