package core

import (
	"context"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// Epoch fencing: a suite built from an epoch-numbered configuration
// (quorum.Config.Epoch > 0) stamps every representative call with that
// epoch, and representatives refuse calls whose epoch is older than the
// newest they have seen (rep.ErrStaleEpoch). Stamping happens in one
// place — every quorum round and repair target passes through wrapDir —
// so a client still holding a superseded configuration fails loudly on
// its first fenced operation instead of silently writing to quorums
// that no longer intersect the current ones.
//
// The stamp never overrides an epoch already present on the context:
// reconfiguration reads the config record under rep.EpochBypass, and
// that must survive the wrapper.

// Epoch returns the configuration epoch this suite stamps on its
// operations; zero for a legacy (pre-reconfiguration) suite.
func (s *Suite) Epoch() uint64 { return s.cfg.Epoch }

// stampCtx attaches the suite's epoch to ctx unless the caller already
// chose one (including rep.EpochBypass).
func (s *Suite) stampCtx(ctx context.Context) context.Context {
	if rep.EpochFromContext(ctx) != 0 {
		return ctx
	}
	return rep.WithEpoch(ctx, s.cfg.Epoch)
}

// wrapDir wraps a representative so every call carries the suite's
// epoch (wrapping twice is harmless: the first stamp stands). Name
// passes through, so transaction participant dedup (txn.Join, by name)
// is unaffected.
func (s *Suite) wrapDir(d rep.Directory) rep.Directory {
	if s.cfg.Epoch == 0 {
		return d
	}
	return &stampedDir{d: d, s: s}
}

// stampedDir is a rep.Directory that stamps the suite's configuration
// epoch onto every call's context.
type stampedDir struct {
	d rep.Directory
	s *Suite
}

func (w *stampedDir) Name() string { return w.d.Name() }

func (w *stampedDir) Lookup(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	return w.d.Lookup(w.s.stampCtx(ctx), txn, key)
}

func (w *stampedDir) Predecessor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	return w.d.Predecessor(w.s.stampCtx(ctx), txn, key)
}

func (w *stampedDir) Successor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	return w.d.Successor(w.s.stampCtx(ctx), txn, key)
}

func (w *stampedDir) PredecessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	return w.d.PredecessorBatch(w.s.stampCtx(ctx), txn, key, max)
}

func (w *stampedDir) SuccessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	return w.d.SuccessorBatch(w.s.stampCtx(ctx), txn, key, max)
}

func (w *stampedDir) Insert(ctx context.Context, txn lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	return w.d.Insert(w.s.stampCtx(ctx), txn, key, ver, value)
}

func (w *stampedDir) Coalesce(ctx context.Context, txn lock.TxnID, lo, hi keyspace.Key, ver version.V) (rep.CoalesceResult, error) {
	return w.d.Coalesce(w.s.stampCtx(ctx), txn, lo, hi, ver)
}

func (w *stampedDir) Prepare(ctx context.Context, txn lock.TxnID) error {
	return w.d.Prepare(w.s.stampCtx(ctx), txn)
}

func (w *stampedDir) Commit(ctx context.Context, txn lock.TxnID) error {
	return w.d.Commit(w.s.stampCtx(ctx), txn)
}

func (w *stampedDir) Abort(ctx context.Context, txn lock.TxnID) error {
	return w.d.Abort(w.s.stampCtx(ctx), txn)
}

func (w *stampedDir) Status(ctx context.Context, txn lock.TxnID) (rep.TxnStatus, error) {
	return w.d.Status(w.s.stampCtx(ctx), txn)
}
