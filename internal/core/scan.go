package core

import (
	"context"
	"fmt"

	"repdir/internal/keyspace"
)

// KV is one entry returned by Scan.
type KV struct {
	Key   string
	Value string
}

// Scan returns up to limit current entries with keys strictly greater
// than after, in ascending key order, as one atomic transaction. Pass
// after = "" to scan from the beginning; limit <= 0 means no limit.
//
// Scanning is built from the same machinery as deletion: each step is a
// real-successor search (Figure 12), which skips ghosts by quorum version
// comparison, so stale replicas can neither hide a current entry nor
// resurrect a deleted one. The scan holds read locks on the traversed
// range until it completes (strict two-phase locking), so the result is a
// consistent snapshot.
func (s *Suite) Scan(ctx context.Context, after string, limit int) ([]KV, error) {
	var out []KV
	err := s.runTxn(ctx, OpScan, manyOps, func(tx *Tx) error {
		var err error
		out, err = tx.Scan(ctx, after, limit)
		return err
	})
	return out, err
}

// Scan is the transactional form of Suite.Scan.
func (tx *Tx) Scan(ctx context.Context, after string, limit int) ([]KV, error) {
	return tx.ScanSpan(ctx, lowerBound(after), keyspace.High(), limit)
}

// ScanRange returns up to limit current entries with after < key <
// until, in ascending order, as one atomic transaction. An empty until
// means "to the end".
func (s *Suite) ScanRange(ctx context.Context, after, until string, limit int) ([]KV, error) {
	var out []KV
	err := s.runTxn(ctx, OpScan, manyOps, func(tx *Tx) error {
		var err error
		out, err = tx.ScanRange(ctx, after, until, limit)
		return err
	})
	return out, err
}

// ScanRange is the transactional form of Suite.ScanRange.
func (tx *Tx) ScanRange(ctx context.Context, after, until string, limit int) ([]KV, error) {
	return tx.ScanSpan(ctx, lowerBound(after), upperBound(until), limit)
}

// ScanPrefix returns the entries whose keys are tuple-encoded extensions
// of the given prefix components (see keyspace.EncodeTuple), in order.
// It only makes sense on directories whose keys were written with
// keyspace.EncodeTuple.
func (s *Suite) ScanPrefix(ctx context.Context, limit int, components ...string) ([]KV, error) {
	after, upper := keyspace.TuplePrefixRange(components...)
	var out []KV
	err := s.runTxn(ctx, OpScan, manyOps, func(tx *Tx) error {
		var err error
		out, err = tx.ScanSpan(ctx, after, upper, limit)
		return err
	})
	return out, err
}

// ScanSpan is ScanRange with Key-typed bounds: Low() and High() are the
// explicit "unbounded" markers, so a routing layer can compose per-shard
// subspans without the string API's ""-means-unbounded convention (under
// which a genuine minimal bound and "no bound" are indistinguishable).
// Both bounds are exclusive.
func (tx *Tx) ScanSpan(ctx context.Context, after, until keyspace.Key, limit int) ([]KV, error) {
	var out []KV
	err := tx.walkSpan(ctx, after, until, limit, func(nb neighbor) {
		out = append(out, KV{Key: nb.key.Raw(), Value: nb.value})
	})
	return out, err
}

// walkSpan walks real successors from after (exclusive) up to until
// (exclusive), calling visit for each current entry, at most limit times
// when limit > 0.
func (tx *Tx) walkSpan(ctx context.Context, after, until keyspace.Key, limit int, visit func(neighbor)) error {
	if !after.Less(until) {
		// Empty span: after == until (or inverted bounds) admits no key
		// with after < key < until. Return before the first successor
		// probe — probing would read-lock keys beyond the requested
		// range and, at after == HIGH, ask representatives for the
		// successor of the maximum key.
		return nil
	}
	k := after
	seen := 0
	for limit <= 0 || seen < limit {
		succ, err := tx.realSuccessor(ctx, k)
		if err != nil {
			return fmt.Errorf("scan after %s: %w", k, err)
		}
		if succ.key.IsHigh() || !succ.key.Less(until) {
			break
		}
		// Each step must strictly advance. A violation means a
		// representative served a successor at or below the probe key —
		// revisiting it would double-count the entry (and loop forever
		// with limit <= 0), so fail the scan instead.
		if !k.Less(succ.key) {
			return fmt.Errorf("core: scan after %s: successor %s did not advance", k, succ.key)
		}
		// System entries (the replicated configuration record) are real
		// entries at the representative layer but are not user state:
		// step over them without visiting or counting.
		if isSystemKey(succ.key) {
			k = succ.key
			continue
		}
		visit(succ)
		seen++
		k = succ.key
	}
	return nil
}

// ScanReverse returns up to limit current entries with keys strictly
// less than before, in descending key order, as one atomic transaction.
// Pass before = "" to scan from the end; limit <= 0 means no limit. It
// is the mirror of Scan, built on the real-predecessor search.
func (s *Suite) ScanReverse(ctx context.Context, before string, limit int) ([]KV, error) {
	var out []KV
	err := s.runTxn(ctx, OpScan, manyOps, func(tx *Tx) error {
		var err error
		out, err = tx.ScanReverse(ctx, before, limit)
		return err
	})
	return out, err
}

// ScanReverse is the transactional form of Suite.ScanReverse.
func (tx *Tx) ScanReverse(ctx context.Context, before string, limit int) ([]KV, error) {
	return tx.ScanReverseSpan(ctx, upperBound(before), limit)
}

// ScanReverseSpan is ScanReverse with a Key-typed bound (High() =
// unbounded). A before at or below every stored key — including Low()
// itself — returns empty with no error and no representative probes.
func (tx *Tx) ScanReverseSpan(ctx context.Context, before keyspace.Key, limit int) ([]KV, error) {
	if before.IsLow() {
		// Nothing lies below the LOW sentinel; probing would ask for
		// the predecessor of the minimum key.
		return nil, nil
	}
	k := before
	var out []KV
	for limit <= 0 || len(out) < limit {
		pred, err := tx.realPredecessor(ctx, k)
		if err != nil {
			return nil, fmt.Errorf("scan before %s: %w", k, err)
		}
		if pred.key.IsLow() {
			break
		}
		// Mirror of walkSpan's guard: each step must strictly descend.
		if !pred.key.Less(k) {
			return nil, fmt.Errorf("core: scan before %s: predecessor %s did not advance", k, pred.key)
		}
		// Step over system entries without emitting them (see walkSpan).
		if isSystemKey(pred.key) {
			k = pred.key
			continue
		}
		out = append(out, KV{Key: pred.key.Raw(), Value: pred.value})
		k = pred.key
	}
	return out, nil
}

// Count returns the number of current entries as one atomic transaction.
// The whole keyspace is read-locked for the duration (strict two-phase
// locking), so the total is quorum-consistent: entries installed by
// concurrent writers or read-repair freshens either commit before the
// count (and are locked out of changing mid-walk) or after it — never
// half-observed. Intended for small directories and audits; it costs one
// real-successor search per entry.
func (s *Suite) Count(ctx context.Context) (int, error) {
	var n int
	err := s.runTxn(ctx, OpCount, manyOps, func(tx *Tx) error {
		var err error
		n, err = tx.Count(ctx)
		return err
	})
	return n, err
}

// Count is the transactional form of Suite.Count.
func (tx *Tx) Count(ctx context.Context) (int, error) {
	return tx.CountSpan(ctx, keyspace.Low(), keyspace.High())
}

// CountSpan counts current entries with after < key < until without
// materializing them. The strict-advance guard in walkSpan is what makes
// the total trustworthy: no key can be visited (and so counted) twice,
// even if a representative serves an anomalous successor during a
// concurrent read-repair install.
func (tx *Tx) CountSpan(ctx context.Context, after, until keyspace.Key) (int, error) {
	n := 0
	err := tx.walkSpan(ctx, after, until, 0, func(neighbor) { n++ })
	return n, err
}

// lowerBound maps the string API's "" convention to an explicit key:
// empty means "from the beginning".
func lowerBound(after string) keyspace.Key {
	if after == "" {
		return keyspace.Low()
	}
	return keyspace.New(after)
}

// upperBound maps "" to "to the end".
func upperBound(until string) keyspace.Key {
	if until == "" {
		return keyspace.High()
	}
	return keyspace.New(until)
}
