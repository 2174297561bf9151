package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/core"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/obs"
	"repdir/internal/quorum"
	"repdir/internal/txn"
	"repdir/internal/version"
)

// Router serves the directory API over a sharded keyspace: one
// core.Suite per range of the Map. It is safe for concurrent use.
//
// Point operations (Lookup, Insert, Update, Delete) are delegated to the
// owning suite, which runs them with its own retry loop and counters.
// Ordered operations (Scan, ScanReverse, ScanRange, Count) and RunInTxn
// run as router transactions: one txn.Txn shared by a core.Tx per
// touched shard, committed with a single two-phase commit, so a
// cross-shard result is as atomic as a single-suite one.
type Router struct {
	m   *Map
	ids *txn.IDSource

	// mu guards suites: online reconfiguration swaps a shard's suite
	// with SetSuite while traffic is in flight. Operations snapshot the
	// slice once at the top, so an individual operation sees one
	// coherent assignment end to end.
	mu     sync.RWMutex
	suites []*core.Suite

	maxRetries int
	parallel   bool
	stats      routerStats

	// idle holds the Txns of transactions that are over (acquire,
	// Txn.over); releasing counts release rounds in flight (Drain).
	idleMu    sync.Mutex
	idle      []*Txn
	releasing atomic.Int64
}

// Option configures a Router.
type Option func(*Router)

// WithIDSource sets the transaction ID source for router transactions.
// It must use a node tag distinct from every suite's own source, so
// wait-die ages order consistently across router and suite transactions.
func WithIDSource(ids *txn.IDSource) Option { return func(r *Router) { r.ids = ids } }

// WithMaxRetries bounds how many times a router transaction is retried
// after a wait-die abort or a lost replica (default 256, matching
// core.Suite).
func WithMaxRetries(n int) Option { return func(r *Router) { r.maxRetries = n } }

// WithParallelStitch makes unlimited scans and counts fetch their
// per-shard parts concurrently (one goroutine per shard; each shard's
// core.Tx stays single-goroutine) and runs the shared transaction's 2PC
// rounds in parallel. The default is sequential, which keeps simulations
// deterministic.
func WithParallelStitch(on bool) Option { return func(r *Router) { r.parallel = on } }

// nextRouterNode mirrors core's per-suite node tagging: routers count
// down from the top of the 10-bit node-tag range while suites count up
// from the bottom, so default-constructed routers and suites in one
// process get distinct wait-die node tags.
var nextRouterNode atomic.Uint32

// NewRouter builds a router over suites, one per shard of m, in range
// order. Representative names must be unique across all suites: the
// shared cross-shard transaction identifies two-phase-commit
// participants by name, so a collision would silently drop one shard's
// representative from the commit protocol.
func NewRouter(m *Map, suites []*core.Suite, opts ...Option) (*Router, error) {
	if m == nil {
		return nil, errors.New("shard: nil map")
	}
	if len(suites) != m.Shards() {
		return nil, fmt.Errorf("shard: map has %d shards but %d suites given", m.Shards(), len(suites))
	}
	seen := make(map[string]int)
	for i, s := range suites {
		if s == nil {
			return nil, fmt.Errorf("shard: suite %d is nil", i)
		}
		for _, member := range s.Config().Members {
			name := member.Dir.Name()
			if prev, dup := seen[name]; dup {
				return nil, fmt.Errorf("shard: representative %q serves both shard %d and shard %d",
					name, prev, i)
			}
			seen[name] = i
		}
	}
	r := &Router{
		m:          m,
		suites:     suites,
		maxRetries: 256,
		stats:      routerStats{fanout: obs.NewCounterVec()},
	}
	for _, op := range opts {
		op(r)
	}
	if r.ids == nil {
		r.ids = txn.NewIDSource(uint16(1<<10 - 1 - nextRouterNode.Add(1)%512))
	}
	return r, nil
}

// suite returns shard i's current suite.
func (r *Router) suite(i int) *core.Suite {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.suites[i]
}

// SetSuite atomically replaces shard i's suite — the router half of an
// online reconfiguration: reconfig.Manager builds the new-epoch suite,
// then the router routes subsequent operations through it. The replaced
// suite is returned and NOT closed; operations that snapshotted it may
// still be running, so the caller closes it after they drain (or leaks
// it for the remaining life of a test). The new suite must keep
// representative names unique across shards, for the same reason
// NewRouter demands it.
func (r *Router) SetSuite(i int, s *core.Suite) (*core.Suite, error) {
	if s == nil {
		return nil, errors.New("shard: nil suite")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.suites) {
		return nil, fmt.Errorf("shard: no shard %d", i)
	}
	seen := make(map[string]int)
	for j, other := range r.suites {
		if j == i {
			continue
		}
		for _, member := range other.Config().Members {
			seen[member.Dir.Name()] = j
		}
	}
	for _, member := range s.Config().Members {
		name := member.Dir.Name()
		if prev, dup := seen[name]; dup {
			return nil, fmt.Errorf("shard: representative %q already serves shard %d", name, prev)
		}
	}
	old := r.suites[i]
	r.suites[i] = s
	return old, nil
}

// Close drains the router and shuts its suites down.
func (r *Router) Close() {
	_ = r.Drain(context.Background()) // nothing cancels it
	for i := range r.m.Shards() {
		r.suite(i).Close()
	}
}

// Drain blocks until the router's release rounds have landed and its
// suites are drained (core.Suite.Drain), or until ctx is done.
func (r *Router) Drain(ctx context.Context) error {
	for r.releasing.Load() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(100 * time.Microsecond)
	}
	for i := range r.m.Shards() {
		if err := r.suite(i).Drain(ctx); err != nil {
			return err
		}
	}
	return nil
}

// ownerOf validates a user key and returns its owning shard index.
func (r *Router) ownerOf(key string) (int, error) {
	if key == "" {
		return 0, errors.New("shard: empty key")
	}
	return r.m.Owner(keyspace.New(key)), nil
}

// Lookup returns the value stored under key and whether an entry exists.
func (r *Router) Lookup(ctx context.Context, key string) (string, bool, error) {
	value, found, _, err := r.LookupV(ctx, key)
	return value, found, err
}

// Insert creates an entry for key in its owning shard.
func (r *Router) Insert(ctx context.Context, key, value string) error {
	_, err := r.InsertV(ctx, key, value)
	return err
}

// Update replaces the value of an existing entry.
func (r *Router) Update(ctx context.Context, key, value string) error {
	_, err := r.UpdateV(ctx, key, value)
	return err
}

// LookupV is Lookup plus the winning version, delegated to the owning
// shard (see core.Suite.LookupV).
func (r *Router) LookupV(ctx context.Context, key string) (string, bool, version.V, error) {
	i, err := r.ownerOf(key)
	if err != nil {
		return "", false, version.Lowest, err
	}
	return r.suite(i).LookupV(ctx, key)
}

// InsertV is Insert plus the version written.
func (r *Router) InsertV(ctx context.Context, key, value string) (version.V, error) {
	i, err := r.ownerOf(key)
	if err != nil {
		return version.Lowest, err
	}
	return r.suite(i).InsertV(ctx, key, value)
}

// UpdateV is Update plus the version written.
func (r *Router) UpdateV(ctx context.Context, key, value string) (version.V, error) {
	i, err := r.ownerOf(key)
	if err != nil {
		return version.Lowest, err
	}
	return r.suite(i).UpdateV(ctx, key, value)
}

// Delete removes the entry for key.
func (r *Router) Delete(ctx context.Context, key string) error {
	_, err := r.DeleteV(ctx, key)
	return err
}

// DeleteV is Delete plus the version of the gap written over the key.
func (r *Router) DeleteV(ctx context.Context, key string) (version.V, error) {
	i, err := r.ownerOf(key)
	if err != nil {
		return version.Lowest, err
	}
	return r.suite(i).DeleteV(ctx, key)
}

// Scan returns up to limit current entries with keys strictly greater
// than after, ascending, across all shards, as one atomic cross-shard
// transaction: core.Suite.Scan's rounds at each shard it reads, and one
// release round to all of them, not waited for under parallel stitching.
func (r *Router) Scan(ctx context.Context, after string, limit int) ([]core.KV, error) {
	return r.scan(ctx, func(x *Txn) ([]core.KV, error) { return x.Scan(ctx, after, limit) })
}

// scan runs fn, one of the scans, as a transaction of its own.
func (r *Router) scan(ctx context.Context, fn func(x *Txn) ([]core.KV, error)) (out []core.KV, err error) {
	err = r.runTxn(ctx, func(x *Txn) (err error) {
		out, err = fn(x)
		return err
	})
	return out, err
}

// ScanRange returns up to limit current entries with after < key <
// until, ascending. An empty until means "to the end".
func (r *Router) ScanRange(ctx context.Context, after, until string, limit int) ([]core.KV, error) {
	return r.scan(ctx, func(x *Txn) ([]core.KV, error) { return x.ScanRange(ctx, after, until, limit) })
}

// ScanReverse returns up to limit current entries with keys strictly
// less than before, descending. Pass before = "" to scan from the end.
func (r *Router) ScanReverse(ctx context.Context, before string, limit int) ([]core.KV, error) {
	return r.scan(ctx, func(x *Txn) ([]core.KV, error) { return x.ScanReverse(ctx, before, limit) })
}

// Count returns the total number of current entries across all shards.
// Every shard is counted inside the same transaction — one consistent
// cut across the whole sharded directory — so concurrent writers and
// repairs can never be half-counted.
func (r *Router) Count(ctx context.Context) (int, error) {
	var n int
	err := r.runTxn(ctx, func(x *Txn) error {
		var err error
		n, err = x.Count(ctx)
		return err
	})
	return n, err
}

// RunInTxn runs fn as one atomic cross-shard transaction: every
// operation on the Txn, whichever shards it lands on, commits together
// through a single two-phase commit or has no effect. fn may be
// re-executed after wait-die aborts or replica failures and must be
// idempotent from the caller's perspective.
//
// The Txn is fn's for the length of the call; one kept longer refuses
// every operation with txn.ErrFinished.
func (r *Router) RunInTxn(ctx context.Context, fn func(x *Txn) error) error {
	return r.run(ctx, true, fn)
}

// runTxn runs one of the router's own operations: fn is the package's,
// and keeps nothing of the Txn when it returns.
func (r *Router) runTxn(ctx context.Context, fn func(x *Txn) error) error {
	return r.run(ctx, false, fn)
}

// acquire returns a Txn, an earlier transaction's if there is one, over
// a snapshot of the current shard assignment.
func (r *Router) acquire(kept bool) *Txn {
	r.idleMu.Lock()
	var x *Txn
	if n := len(r.idle); n > 0 {
		x, r.idle = r.idle[n-1], r.idle[:n-1]
	}
	r.idleMu.Unlock()
	if x == nil {
		x = &Txn{r: r}
		x.t.Parallel, x.t.Landed = r.parallel, x.landed
		x.leg = func(j int) { x.errs[j] = x.do(j); x.legs.Done() }
	}
	r.mu.RLock()
	x.suites = append(x.suites[:0], r.suites...)
	r.mu.RUnlock()
	x.excludes = append(x.excludes[:0], make([]quorum.Set, len(x.suites))...)
	x.txs = append(x.txs[:0], make([]*core.Tx, len(x.suites))...)
	x.kept = kept
	return x
}

// run is the router's retry loop, mirroring core.Suite.run: each
// attempt runs under its own attempt ID (same wait-die age), failed
// members accumulate into per-shard exclusion sets, and wait-die victims
// back off linearly. The shared txn.Txn is committed when any shard
// mutated and released otherwise (txn.Txn.Release). Unless the Txn was
// handed out to a caller's fn (kept), each shard's core.Tx goes back to
// its suite when the attempt is over, and the Txn to the router when the
// transaction and its release round are.
func (r *Router) run(ctx context.Context, kept bool, fn func(x *Txn) error) error {
	base := r.ids.Next()
	x := r.acquire(kept)
	released := false
	defer func() {
		if !released {
			x.over()
		}
	}()
	maxAttempts := min(r.maxRetries, txn.MaxAttempts-1)
	var lastErr error
	for attempt := 0; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			r.stats.done(0, attempt)
			return err
		}
		x.t.Reset(txn.AttemptID(base, attempt))
		err := fn(x)
		mutated, fanout := false, 0 // fanout: the shards the attempt touched
		for i, tx := range x.txs {
			if tx == nil {
				continue
			}
			mutated, fanout = mutated || tx.Mutated(), fanout+1
			x.excludes[i] |= tx.FailedMembers()
			if x.txs[i] = nil; !kept {
				tx.Discard()
			}
		}
		switch {
		case err != nil:
			_ = x.t.Abort(ctx)
		case mutated:
			err = x.t.Commit(ctx)
		default: // read-only: the Txn is its release round's from here
			r.releasing.Add(1)
			released = true
			x.t.Release(ctx)
		}
		if err == nil {
			r.stats.done(fanout, attempt)
			return nil
		}
		lastErr = err
		if !core.Retryable(err) {
			r.stats.done(fanout, attempt)
			return err
		}
		if errors.Is(err, lock.ErrDie) {
			core.Backoff(ctx, attempt)
		}
	}
	err := fmt.Errorf("%w: %w", core.ErrRetriesExhausted, lastErr)
	r.stats.done(0, maxAttempts+1)
	return err
}
