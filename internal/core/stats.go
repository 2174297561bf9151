package core

import "sync/atomic"

// SuiteStats counts transaction-level events on a Suite. All fields are
// cumulative since the suite was created.
type SuiteStats struct {
	// Calls is the number of operations started. Every call ends up in
	// exactly one of Commits, Failures, or Cancelled, so
	// Commits + Failures + Cancelled == Calls once all operations have
	// returned.
	Calls uint64
	// Commits is the number of transactions that committed.
	Commits uint64
	// Failures is the number of operations that ultimately failed
	// (including semantic errors like ErrKeyExists).
	Failures uint64
	// Cancelled is the number of operations abandoned because their
	// context was done before an attempt could start.
	Cancelled uint64
	// Retries is the number of extra attempts caused by wait-die aborts
	// or lost replicas.
	Retries uint64
	// Dies is the number of attempts killed by wait-die.
	Dies uint64
	// ReplicaLosses is the number of replicas lost mid-operation and
	// excluded from a retry; one attempt can lose several at once under
	// parallel fan-out.
	ReplicaLosses uint64
	// StaleEpochRejections counts operations that failed because this
	// suite's configuration epoch was fenced as stale by a
	// representative (rep.ErrStaleEpoch); the suite must be rebuilt from
	// the current configuration record.
	StaleEpochRejections uint64
}

// suiteCounters is the mutable, atomic backing store.
type suiteCounters struct {
	calls         atomic.Uint64
	commits       atomic.Uint64
	failures      atomic.Uint64
	cancelled     atomic.Uint64
	retries       atomic.Uint64
	dies          atomic.Uint64
	replicaLosses atomic.Uint64
	staleEpoch    atomic.Uint64
}

// snapshot freezes the counters.
func (c *suiteCounters) snapshot() SuiteStats {
	return SuiteStats{
		Calls:                c.calls.Load(),
		Commits:              c.commits.Load(),
		Failures:             c.failures.Load(),
		Cancelled:            c.cancelled.Load(),
		Retries:              c.retries.Load(),
		Dies:                 c.dies.Load(),
		ReplicaLosses:        c.replicaLosses.Load(),
		StaleEpochRejections: c.staleEpoch.Load(),
	}
}

// Stats returns a snapshot of the suite's transaction counters.
func (s *Suite) Stats() SuiteStats {
	return s.counters.snapshot()
}
