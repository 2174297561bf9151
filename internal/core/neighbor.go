package core

import (
	"context"

	"repdir/internal/keyspace"
)

// Successor returns the current entry with the smallest key strictly
// greater than after, running one atomic transaction. found == false
// means the directory holds no such entry — the search reached the HIGH
// sentinel — which is a definitive answer, not a failure. An error means
// the search itself failed (no quorum, transport loss, retries
// exhausted) and says nothing about whether a successor exists; callers
// stitching across shards must not treat it as "empty".
//
// Pass after = "" to get the minimum entry.
func (s *Suite) Successor(ctx context.Context, after string) (KV, bool, error) {
	return s.first(ctx, OpSuccessor, lowerBound(after), keyspace.High(), false)
}

// Predecessor is the mirror of Successor: the current entry with the
// largest key strictly less than before, or found == false when none
// exists (the search reached the LOW sentinel). Pass before = "" to get
// the maximum entry.
func (s *Suite) Predecessor(ctx context.Context, before string) (KV, bool, error) {
	return s.first(ctx, OpPredecessor, upperBound(before), keyspace.Low(), true)
}

// first runs Tx.first as a transaction of its own.
func (s *Suite) first(ctx context.Context, op string, from, bound keyspace.Key, desc bool) (kv KV, found bool, err error) {
	err = s.runTxn(ctx, op, manyOps, func(tx *Tx) (err error) {
		kv, found, err = tx.first(ctx, from, bound, desc)
		return err
	})
	return kv, found, err
}

// SuccessorKey is the transactional, Key-typed form of Suite.Successor.
// Asking for the successor of High() (or the predecessor of Low() in
// PredecessorKey) is answered locally as found == false with no
// representative probes.
func (tx *Tx) SuccessorKey(ctx context.Context, after keyspace.Key) (KV, bool, error) {
	return tx.first(ctx, after, keyspace.High(), false)
}

// PredecessorKey is the transactional, Key-typed form of
// Suite.Predecessor.
func (tx *Tx) PredecessorKey(ctx context.Context, before keyspace.Key) (KV, bool, error) {
	return tx.first(ctx, before, keyspace.Low(), true)
}

// first is a walk of one entry. System entries are invisible to the
// public API; the walk steps over them.
func (tx *Tx) first(ctx context.Context, from, bound keyspace.Key, desc bool) (KV, bool, error) {
	var kv KV
	found := false
	err := tx.walk(ctx, from, bound, desc, 1, func(nb neighbor) {
		kv, found = KV{Key: nb.key.Raw(), Value: nb.value}, true
	})
	return kv, found, err
}
