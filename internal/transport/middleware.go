package transport

import (
	"context"
	"sync/atomic"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/obs"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// Op names a Directory operation for middleware hooks.
type Op string

// Operation names passed to Middleware hooks.
const (
	OpLookup           Op = "lookup"
	OpPredecessor      Op = "predecessor"
	OpSuccessor        Op = "successor"
	OpPredecessorBatch Op = "predecessor-batch"
	OpSuccessorBatch   Op = "successor-batch"
	OpInsert           Op = "insert"
	OpCoalesce         Op = "coalesce"
	OpPrepare          Op = "prepare"
	OpCommit           Op = "commit"
	OpAbort            Op = "abort"
	OpStatus           Op = "status"
)

// IsInquiry reports whether the operation is a read-class message
// (DirRepLookup / DirRepPredecessor / DirRepSuccessor and their batches).
func (o Op) IsInquiry() bool {
	switch o {
	case OpLookup, OpPredecessor, OpSuccessor, OpPredecessorBatch, OpSuccessorBatch:
		return true
	default:
		return false
	}
}

// IsMutation reports whether the operation modifies directory state
// (DirRepInsert / DirRepCoalesce).
func (o Op) IsMutation() bool {
	return o == OpInsert || o == OpCoalesce
}

// OpStats is a point-in-time snapshot of one operation's counters.
type OpStats struct {
	// Calls counts completed calls (errors included). Blocked counts
	// calls rejected by a Before hook; they never reach the target and
	// contribute no latency.
	Calls   uint64
	Blocked uint64
	// Errors counts completed calls that returned a non-nil error.
	Errors uint64
	// InFlight is the number of calls currently inside the target;
	// MaxInFlight is the high-water mark.
	InFlight    int64
	MaxInFlight int64
	// Total is cumulative latency across completed calls.
	Total time.Duration
	// Latency is the full latency distribution of completed calls
	// (fixed log buckets; see package obs), from which any quantile can
	// be read — the cumulative Total alone hides tail behavior.
	Latency obs.HistogramSnapshot
}

// Avg returns mean latency per completed call.
func (s OpStats) Avg() time.Duration {
	if s.Calls == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Calls)
}

// opCounters is the live (atomic) form of OpStats.
type opCounters struct {
	calls       atomic.Uint64
	blocked     atomic.Uint64
	errors      atomic.Uint64
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
	totalNanos  atomic.Int64
	latency     obs.Histogram
}

// allOps enumerates every operation a Directory can receive.
var allOps = []Op{
	OpLookup, OpPredecessor, OpSuccessor, OpPredecessorBatch,
	OpSuccessorBatch, OpInsert, OpCoalesce, OpPrepare, OpCommit,
	OpAbort, OpStatus,
}

// CallStats tracks per-operation call counts, error counts, in-flight
// gauges, and cumulative latency for a Middleware. With a multiplexed
// transport many calls overlap on one connection; the in-flight gauge
// (and its high-water mark) makes that overlap observable. Safe for
// concurrent use; attach one via Middleware.Stats or WrapStats.
type CallStats struct {
	per map[Op]*opCounters
}

// NewCallStats builds an empty counter set.
func NewCallStats() *CallStats {
	s := &CallStats{per: make(map[Op]*opCounters, len(allOps))}
	for _, op := range allOps {
		s.per[op] = &opCounters{}
	}
	return s
}

// begin marks a call entering the target and returns the closure that
// records its completion.
func (s *CallStats) begin(op Op) func(error) {
	c := s.per[op]
	if c == nil {
		return func(error) {}
	}
	n := c.inFlight.Add(1)
	for {
		max := c.maxInFlight.Load()
		if n <= max || c.maxInFlight.CompareAndSwap(max, n) {
			break
		}
	}
	start := time.Now()
	return func(err error) {
		d := time.Since(start)
		c.inFlight.Add(-1)
		c.calls.Add(1)
		c.totalNanos.Add(int64(d))
		c.latency.Observe(d)
		if err != nil {
			c.errors.Add(1)
		}
	}
}

// block records a call rejected by a Before hook.
func (s *CallStats) block(op Op) {
	if c := s.per[op]; c != nil {
		c.blocked.Add(1)
	}
}

// Op returns a snapshot of one operation's counters.
func (s *CallStats) Op(op Op) OpStats {
	c := s.per[op]
	if c == nil {
		return OpStats{}
	}
	return OpStats{
		Calls:       c.calls.Load(),
		Blocked:     c.blocked.Load(),
		Errors:      c.errors.Load(),
		InFlight:    c.inFlight.Load(),
		MaxInFlight: c.maxInFlight.Load(),
		Total:       time.Duration(c.totalNanos.Load()),
		Latency:     c.latency.Snapshot(),
	}
}

// Snapshot returns every operation's counters.
func (s *CallStats) Snapshot() map[Op]OpStats {
	out := make(map[Op]OpStats, len(s.per))
	for op := range s.per {
		out[op] = s.Op(op)
	}
	return out
}

// InFlight sums the calls currently in flight across all operations.
func (s *CallStats) InFlight() int64 {
	var n int64
	for _, c := range s.per {
		n += c.inFlight.Load()
	}
	return n
}

// LatencySamples renders the per-operation latency histograms as
// exposition samples, prefixing each sample's labels with the given
// values (e.g. the member name). Registered via obs.Registry.
// HistogramVec with label names prefix..., "op".
func (s *CallStats) LatencySamples(prefix ...string) []obs.HistSample {
	out := make([]obs.HistSample, 0, len(s.per))
	for op, c := range s.per {
		snap := c.latency.Snapshot()
		if snap.Count == 0 {
			continue
		}
		labels := append(append([]string(nil), prefix...), string(op))
		out = append(out, obs.HistSample{Labels: labels, Snap: snap})
	}
	return out
}

// Middleware adapts a representative with per-call hooks; it is the
// building block for fault injectors, partitions, and traffic counters
// (the simulation and test harnesses are built on it). Target selects
// the representative per call, which also supports swapping in a
// recovered incarnation; Before, when set, runs first and may fail the
// call by returning an error; Stats, when set, counts calls, errors,
// in-flight gauges, and latency per operation.
type Middleware struct {
	// Target returns the representative to forward to. Required.
	Target func() rep.Directory
	// Before, if non-nil, runs before each call; a non-nil error is
	// returned to the caller without reaching the target.
	Before func(op Op) error
	// After, if non-nil, observes each completed call's outcome (calls
	// blocked by Before are not reported). Health trackers hook in
	// here to learn reachability at the transport layer.
	After func(op Op, err error)
	// Stats, if non-nil, receives per-operation counters.
	Stats *CallStats
}

var _ rep.Directory = (*Middleware)(nil)

// Wrap builds a Middleware over a fixed target.
func Wrap(target rep.Directory, before func(op Op) error) *Middleware {
	return &Middleware{
		Target: func() rep.Directory { return target },
		Before: before,
	}
}

// WrapStats builds a counting Middleware over a fixed target and returns
// the counters alongside it.
func WrapStats(target rep.Directory) (*Middleware, *CallStats) {
	stats := NewCallStats()
	return &Middleware{
		Target: func() rep.Directory { return target },
		Stats:  stats,
	}, stats
}

// begin runs the Before hook and opens the stats window. It returns the
// completion closure, or an error when the hook blocked the call.
func (m *Middleware) begin(op Op) (func(error), error) {
	if m.Before != nil {
		if err := m.Before(op); err != nil {
			if m.Stats != nil {
				m.Stats.block(op)
			}
			return nil, err
		}
	}
	var end func(error)
	if m.Stats != nil {
		end = m.Stats.begin(op)
	}
	after := m.After
	if end == nil && after == nil {
		return func(error) {}, nil
	}
	return func(err error) {
		if end != nil {
			end(err)
		}
		if after != nil {
			after(op, err)
		}
	}, nil
}

// Name implements rep.Directory.
func (m *Middleware) Name() string { return m.Target().Name() }

// Lookup implements rep.Directory.
func (m *Middleware) Lookup(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	end, err := m.begin(OpLookup)
	if err != nil {
		return rep.LookupResult{}, err
	}
	r, err := m.Target().Lookup(ctx, id, key)
	end(err)
	return r, err
}

// Predecessor implements rep.Directory.
func (m *Middleware) Predecessor(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	end, err := m.begin(OpPredecessor)
	if err != nil {
		return rep.NeighborResult{}, err
	}
	r, err := m.Target().Predecessor(ctx, id, key)
	end(err)
	return r, err
}

// Successor implements rep.Directory.
func (m *Middleware) Successor(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	end, err := m.begin(OpSuccessor)
	if err != nil {
		return rep.NeighborResult{}, err
	}
	r, err := m.Target().Successor(ctx, id, key)
	end(err)
	return r, err
}

// PredecessorBatch implements rep.Directory.
func (m *Middleware) PredecessorBatch(ctx context.Context, id lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	end, err := m.begin(OpPredecessorBatch)
	if err != nil {
		return nil, err
	}
	r, err := m.Target().PredecessorBatch(ctx, id, key, max)
	end(err)
	return r, err
}

// SuccessorBatch implements rep.Directory.
func (m *Middleware) SuccessorBatch(ctx context.Context, id lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	end, err := m.begin(OpSuccessorBatch)
	if err != nil {
		return nil, err
	}
	r, err := m.Target().SuccessorBatch(ctx, id, key, max)
	end(err)
	return r, err
}

// Insert implements rep.Directory.
func (m *Middleware) Insert(ctx context.Context, id lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	end, err := m.begin(OpInsert)
	if err != nil {
		return err
	}
	err = m.Target().Insert(ctx, id, key, ver, value)
	end(err)
	return err
}

// Coalesce implements rep.Directory.
func (m *Middleware) Coalesce(ctx context.Context, id lock.TxnID, lo, hi keyspace.Key, ver version.V) (rep.CoalesceResult, error) {
	end, err := m.begin(OpCoalesce)
	if err != nil {
		return rep.CoalesceResult{}, err
	}
	r, err := m.Target().Coalesce(ctx, id, lo, hi, ver)
	end(err)
	return r, err
}

// Prepare implements rep.Directory.
func (m *Middleware) Prepare(ctx context.Context, id lock.TxnID) error {
	end, err := m.begin(OpPrepare)
	if err != nil {
		return err
	}
	err = m.Target().Prepare(ctx, id)
	end(err)
	return err
}

// Commit implements rep.Directory.
func (m *Middleware) Commit(ctx context.Context, id lock.TxnID) error {
	end, err := m.begin(OpCommit)
	if err != nil {
		return err
	}
	err = m.Target().Commit(ctx, id)
	end(err)
	return err
}

// Abort implements rep.Directory.
func (m *Middleware) Abort(ctx context.Context, id lock.TxnID) error {
	end, err := m.begin(OpAbort)
	if err != nil {
		return err
	}
	err = m.Target().Abort(ctx, id)
	end(err)
	return err
}

// Status implements rep.Directory.
func (m *Middleware) Status(ctx context.Context, id lock.TxnID) (rep.TxnStatus, error) {
	end, err := m.begin(OpStatus)
	if err != nil {
		return 0, err
	}
	st, err := m.Target().Status(ctx, id)
	end(err)
	return st, err
}
