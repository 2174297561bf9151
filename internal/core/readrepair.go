package core

import (
	"context"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/rep"
)

// Read repair: a quorum read that observes some responder holding a
// stale or missing copy of the winning (version, value) has just paid
// for the evidence that the replica is behind — so the suite enqueues
// an asynchronous, bounded freshen of exactly that key on exactly those
// members (Dotted Version Vectors, arXiv:1011.5808, frames this
// read-time reconciliation; our version-dominance install makes it
// safe). The freshen reuses the versioned-install step of
// RepairReplica: it re-reads the key by quorum inside its own
// transaction and installs the current pair only if the target is still
// behind, so a racing Update or Delete always wins by version
// dominance and a stale install can never resurrect deleted data. It
// touches only the one key: ghosts and gap versions around it are
// RepairReplica's to bring current.
//
// The queue is bounded and lossy: read repair is an optimization, not a
// correctness mechanism, so when the queue is full the observation is
// dropped (and counted) rather than back-pressuring reads.

// readRepairJob is one observed-staleness freshen request.
type readRepairJob struct {
	key   string
	stale []rep.Directory
}

// readRepairTimeout bounds one freshen transaction, so a job against a
// member that fails again cannot wedge the worker.
const readRepairTimeout = 2 * time.Second

// enqueueReadRepair hands the job to the worker without blocking. After
// Close, jobs are refused and counted as dropped — counting them as
// enqueued would inflate ReadRepairEnqueued with work that can never be
// attempted, and break the accounting Drain waits on.
func (s *Suite) enqueueReadRepair(job readRepairJob) {
	s.rrMu.RLock()
	if !s.rrClosed {
		select {
		case s.rrQueue <- job:
			s.rrMu.RUnlock()
			s.counters.readRepairEnqueued.Add(1)
			return
		default:
		}
	}
	s.rrMu.RUnlock()
	s.counters.readRepairDropped.Add(1)
}

// readRepairWorker drains the queue until the suite is closed.
func (s *Suite) readRepairWorker(ctx context.Context) {
	defer s.rrWG.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case job := <-s.rrQueue:
			jctx, cancel := context.WithTimeout(ctx, readRepairTimeout)
			stats, err := s.repairKeyOn(jctx, job.key, job.stale)
			cancel()
			// Record whatever was installed even when some target
			// failed — per-target isolation in repairKeyOn means a
			// partially successful job still did real work.
			s.counters.readRepairCopied.Add(uint64(stats.Copied))
			s.counters.readRepairFreshened.Add(uint64(stats.Freshened))
			if err != nil {
				s.counters.readRepairFailed.Add(1)
				continue
			}
			s.counters.readRepairDone.Add(1)
		}
	}
}

// repairKeyOn freshens one key on each given member, one repair
// transaction per target so a single unreachable member cannot void the
// work done on the others (internal repair transactions never
// re-enqueue read repairs, so a freshen that observes further staleness
// cannot loop on itself). It returns the stats of the targets that
// succeeded alongside the first error.
func (s *Suite) repairKeyOn(ctx context.Context, key string, targets []rep.Directory) (RepairStats, error) {
	var total RepairStats
	var firstErr error
	for _, target := range targets {
		var stats RepairStats
		err := s.runTxn(ctx, OpReadRepair, repairOps, func(tx *Tx) error {
			stats = RepairStats{}
			return repairEntry(ctx, tx, target, key, &stats)
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		total.Add(stats)
	}
	return total, firstErr
}

// repairEntry freshens one key on the target within the transaction.
func repairEntry(ctx context.Context, tx *Tx, target rep.Directory, key string, stats *RepairStats) error {
	k := keyspace.New(key)
	// Current state, by quorum.
	cur, err := tx.suiteLookup(ctx, k)
	if err != nil {
		return err
	}
	if !cur.Found {
		// Deleted since the read that observed staleness; nothing to
		// install.
		stats.Scanned++
		return nil
	}
	if err := tx.txn.Join(target); err != nil {
		return err
	}
	return repairInstall(ctx, tx, target, k, cur.Version, cur.Value, stats)
}

// Drain blocks until every read-only operation's release round has
// landed and every read repair enqueued so far been attempted (after
// Close, queued ones are dropped), or until ctx is done.
func (s *Suite) Drain(ctx context.Context) error {
	for s.releasing.Load() > 0 || !s.repaired() {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// repaired reports whether the read repairs enqueued so far are done.
func (s *Suite) repaired() bool {
	if s.rrQueue == nil {
		return true
	}
	s.rrMu.RLock()
	closed := s.rrClosed
	s.rrMu.RUnlock()
	st := s.Stats()
	return closed || st.ReadRepairDone+st.ReadRepairFailed >= st.ReadRepairEnqueued
}

// Close waits for the release rounds in flight to land and stops the
// suite's background read-repair worker. Jobs still queued when the
// worker stops are discarded and counted in ReadRepairDropped, so the
// suite's accounting stays whole. It is safe to call more than once.
// Operations remain usable after Close; only the asynchronous
// freshening stops (subsequent staleness observations count as
// dropped).
func (s *Suite) Close() {
	for s.releasing.Load() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if s.rrCancel == nil {
		return
	}
	s.closeOnce.Do(func() {
		// Flip rrClosed under the write lock: once this releases, no
		// enqueue can add to the queue, so the drain below is complete.
		s.rrMu.Lock()
		s.rrClosed = true
		s.rrMu.Unlock()
		s.rrCancel()
		s.rrWG.Wait()
		for {
			select {
			case <-s.rrQueue:
				s.counters.readRepairDropped.Add(1)
			default:
				return
			}
		}
	})
}
