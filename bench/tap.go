package main

import (
	"context"
	"sync/atomic"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// method names a member call the way the paper counts messages: the four
// neighbor probes are one kind.
type method uint8

const (
	mLookup method = iota
	mNeighbor
	mInsert
	mCoalesce
	mPrepare
	mCommit
	mAbort
	mStatus
	nMethods
)

var methodNames = [nMethods]string{"lookup", "neighbor", "insert", "coalesce", "prepare", "commit", "abort", "status"}

// tap observes every call that passes through a tapDir. enter runs
// before the call and may block (the modelled round trip); the slot it
// returns is handed back to exit with the call's error.
type tap interface {
	enter(ctx context.Context, txn lock.TxnID, m method) int
	exit(slot int, err error)
}

// tapDir is a rep.Directory that reports each call to a tap and is
// otherwise transparent: arguments, results and errors pass through
// untouched, and Name is not a call.
type tapDir struct {
	inner rep.Directory
	t     tap
}

var _ rep.Directory = (*tapDir)(nil)

func (d *tapDir) Name() string { return d.inner.Name() }

func (d *tapDir) Lookup(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	s := d.t.enter(ctx, txn, mLookup)
	r, err := d.inner.Lookup(ctx, txn, key)
	d.t.exit(s, err)
	return r, err
}

func (d *tapDir) Predecessor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	s := d.t.enter(ctx, txn, mNeighbor)
	r, err := d.inner.Predecessor(ctx, txn, key)
	d.t.exit(s, err)
	return r, err
}

func (d *tapDir) Successor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	s := d.t.enter(ctx, txn, mNeighbor)
	r, err := d.inner.Successor(ctx, txn, key)
	d.t.exit(s, err)
	return r, err
}

func (d *tapDir) PredecessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	s := d.t.enter(ctx, txn, mNeighbor)
	r, err := d.inner.PredecessorBatch(ctx, txn, key, max)
	d.t.exit(s, err)
	return r, err
}

func (d *tapDir) SuccessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	s := d.t.enter(ctx, txn, mNeighbor)
	r, err := d.inner.SuccessorBatch(ctx, txn, key, max)
	d.t.exit(s, err)
	return r, err
}

func (d *tapDir) Insert(ctx context.Context, txn lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	s := d.t.enter(ctx, txn, mInsert)
	err := d.inner.Insert(ctx, txn, key, ver, value)
	d.t.exit(s, err)
	return err
}

func (d *tapDir) Coalesce(ctx context.Context, txn lock.TxnID, lo, hi keyspace.Key, ver version.V) (rep.CoalesceResult, error) {
	s := d.t.enter(ctx, txn, mCoalesce)
	r, err := d.inner.Coalesce(ctx, txn, lo, hi, ver)
	d.t.exit(s, err)
	return r, err
}

func (d *tapDir) Prepare(ctx context.Context, txn lock.TxnID) error {
	s := d.t.enter(ctx, txn, mPrepare)
	err := d.inner.Prepare(ctx, txn)
	d.t.exit(s, err)
	return err
}

func (d *tapDir) Commit(ctx context.Context, txn lock.TxnID) error {
	s := d.t.enter(ctx, txn, mCommit)
	err := d.inner.Commit(ctx, txn)
	d.t.exit(s, err)
	return err
}

func (d *tapDir) Abort(ctx context.Context, txn lock.TxnID) error {
	s := d.t.enter(ctx, txn, mAbort)
	err := d.inner.Abort(ctx, txn)
	d.t.exit(s, err)
	return err
}

func (d *tapDir) Status(ctx context.Context, txn lock.TxnID) (rep.TxnStatus, error) {
	s := d.t.enter(ctx, txn, mStatus)
	r, err := d.inner.Status(ctx, txn)
	d.t.exit(s, err)
	return r, err
}

// modelledDelay is a delay that is off while a deployment is preloaded
// and switched on for the timed part, shared by every wrapper that
// models it.
type modelledDelay struct {
	d  time.Duration
	on *atomic.Bool
}

func (m modelledDelay) wait() {
	if m.d > 0 && m.on.Load() {
		time.Sleep(m.d)
	}
}

// delayTap models the round trip to a member on an untraced deployment.
type delayTap struct{ rtt modelledDelay }

func (t delayTap) enter(context.Context, lock.TxnID, method) int { t.rtt.wait(); return 0 }
func (t delayTap) exit(int, error)                               {}
