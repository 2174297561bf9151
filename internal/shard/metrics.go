package shard

import (
	"strconv"
	"sync/atomic"

	"repdir/internal/obs"
)

// routerStats counts router transactions: how many shards each touched
// (fanout), how many touched two or more, and the retries they took.
type routerStats struct {
	fanout     *obs.CounterVec // by number of shards touched
	retries    atomic.Uint64
	crossShard atomic.Uint64
}

// done records a finished router transaction.
func (s *routerStats) done(fanout, attempt int) {
	s.fanout.Add(strconv.Itoa(fanout), 1)
	if attempt > 0 {
		s.retries.Add(uint64(attempt))
	}
	if fanout >= 2 {
		s.crossShard.Add(1)
	}
}

// RouterStats is a point-in-time snapshot of the router's counters.
type RouterStats struct {
	// Fanout[n] counts router transactions (stitched traversals, counts,
	// and RunInTxn) that touched n shards.
	Fanout map[string]uint64
	// Retries totals retry attempts across router transactions;
	// CrossShard counts transactions that touched two or more shards.
	Retries    uint64
	CrossShard uint64
}

// Stats snapshots the router's counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Fanout:     r.stats.fanout.Snapshot(),
		Retries:    r.stats.retries.Load(),
		CrossShard: r.stats.crossShard.Load(),
	}
}
