package core

import (
	"context"
	"time"

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
// dominance and a stale install can never resurrect deleted data.
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
// attempted, and break the DrainReadRepair accounting.
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
		total.add(stats)
	}
	return total, firstErr
}

// DrainReadRepair blocks until every read repair enqueued so far has
// been attempted (or ctx expires). Intended for tests and audits that
// need the asynchronous freshens settled before inspecting replicas.
// After Close it returns immediately: the worker is gone, so waiting
// for queued jobs to be attempted would spin forever.
func (s *Suite) DrainReadRepair(ctx context.Context) error {
	if s.rrQueue == nil {
		return nil
	}
	for {
		s.rrMu.RLock()
		closed := s.rrClosed
		s.rrMu.RUnlock()
		if closed {
			return nil
		}
		st := s.Stats()
		if st.ReadRepairDone+st.ReadRepairFailed >= st.ReadRepairEnqueued {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Close stops the suite's background read-repair worker. Jobs still
// queued when the worker stops are discarded and counted in
// ReadRepairDropped, so the suite's accounting stays whole. It is a
// no-op for suites without read repair and is safe to call more than
// once. Operations remain usable after Close; only the asynchronous
// freshening stops (subsequent staleness observations count as
// dropped).
func (s *Suite) Close() {
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
