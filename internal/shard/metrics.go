package shard

import (
	"strconv"
	"sync/atomic"
	"time"

	"repdir/internal/obs"
)

// routerStats instruments the router: point-op routing per shard,
// stitched-op outcomes and latency, traversal fanout (how many shards an
// ordered op touched), and cross-shard transaction counts.
type routerStats struct {
	pointOps  []*obs.CounterVec // per shard, by op
	pointErrs []*obs.CounterVec

	ops     *obs.CounterVec // router transactions, by op
	errs    *obs.CounterVec
	latency *obs.HistogramVec // router transaction latency, by op
	fanout  *obs.CounterVec   // by number of shards touched

	retries    atomic.Uint64
	crossShard atomic.Uint64
}

func newRouterStats(shards int) *routerStats {
	s := &routerStats{
		pointOps:  make([]*obs.CounterVec, shards),
		pointErrs: make([]*obs.CounterVec, shards),
		ops:       obs.NewCounterVec(),
		errs:      obs.NewCounterVec(),
		latency:   obs.NewHistogramVec(),
		fanout:    obs.NewCounterVec(),
	}
	for i := range s.pointOps {
		s.pointOps[i] = obs.NewCounterVec()
		s.pointErrs[i] = obs.NewCounterVec()
	}
	return s
}

// point records a routed point operation's outcome on its owning shard.
func (s *routerStats) point(shard int, op string, err error) {
	s.pointOps[shard].Add(op, 1)
	if err != nil {
		s.pointErrs[shard].Add(op, 1)
	}
}

// done records a finished router transaction.
func (s *routerStats) done(op string, d time.Duration, fanout, attempt int, err error) {
	s.ops.Add(op, 1)
	if err != nil {
		s.errs.Add(op, 1)
	}
	s.latency.With(op).Observe(d)
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
	// PointOps[i][op] counts point operations routed to shard i;
	// PointErrs counts the ones that failed.
	PointOps  []map[string]uint64
	PointErrs []map[string]uint64
	// RouterOps[op] counts router transactions (stitched traversals,
	// counts, and RunInTxn) by operation label.
	RouterOps  map[string]uint64
	RouterErrs map[string]uint64
	// Fanout[n] counts router transactions that touched n shards.
	Fanout map[string]uint64
	// Retries totals retry attempts across router transactions;
	// CrossShard counts transactions that touched two or more shards.
	Retries    uint64
	CrossShard uint64
}

// Stats snapshots the router's counters.
func (r *Router) Stats() RouterStats {
	s := r.stats
	out := RouterStats{
		PointOps:   make([]map[string]uint64, len(s.pointOps)),
		PointErrs:  make([]map[string]uint64, len(s.pointErrs)),
		RouterOps:  s.ops.Snapshot(),
		RouterErrs: s.errs.Snapshot(),
		Fanout:     s.fanout.Snapshot(),
		Retries:    s.retries.Load(),
		CrossShard: s.crossShard.Load(),
	}
	for i := range s.pointOps {
		out.PointOps[i] = s.pointOps[i].Snapshot()
		out.PointErrs[i] = s.pointErrs[i].Snapshot()
	}
	return out
}

// OpLatency returns the latency distribution of router transactions with
// the given operation label.
func (r *Router) OpLatency(op string) obs.HistogramSnapshot {
	return r.stats.latency.With(op).Snapshot()
}

// RegisterMetrics exposes the router's counters on a metrics registry
// under the repdir_shard_* namespace.
func (r *Router) RegisterMetrics(reg *obs.Registry) {
	s := r.stats
	// perShard samples one counter per shard and operation.
	perShard := func(vecs []*obs.CounterVec) func() []obs.Sample {
		return func() (out []obs.Sample) {
			for i, vec := range vecs {
				shard := strconv.Itoa(i)
				for op, n := range vec.Snapshot() {
					out = append(out, obs.Sample{Labels: []string{shard, op}, Value: float64(n)})
				}
			}
			return out
		}
	}
	reg.CounterVec("repdir_shard_point_ops_total",
		"Point operations routed to each shard, by operation.",
		[]string{"shard", "op"}, perShard(s.pointOps))
	reg.CounterVec("repdir_shard_point_op_errors_total",
		"Failed point operations per shard, by operation.",
		[]string{"shard", "op"}, perShard(s.pointErrs))
	reg.CounterMap("repdir_shard_router_ops_total",
		"Router transactions (stitched traversals, counts, cross-shard txns), by operation.",
		"op", s.ops.Snapshot)
	reg.CounterMap("repdir_shard_router_op_errors_total",
		"Failed router transactions, by operation.",
		"op", s.errs.Snapshot)
	reg.CounterMap("repdir_shard_traversal_fanout_total",
		"Router transactions by how many shards they touched.",
		"shards", s.fanout.Snapshot)
	reg.Counter("repdir_shard_txn_retries_total",
		"Retry attempts across router transactions.", s.retries.Load)
	reg.Counter("repdir_shard_cross_shard_txns_total",
		"Router transactions that touched two or more shards.", s.crossShard.Load)
	reg.HistogramVec("repdir_shard_router_latency",
		"Router transaction latency, by operation.",
		[]string{"op"}, func() []obs.HistSample {
			var out []obs.HistSample
			for op, snap := range s.latency.Snapshot() {
				out = append(out, obs.HistSample{Labels: []string{op}, Snap: snap})
			}
			return out
		})
}
