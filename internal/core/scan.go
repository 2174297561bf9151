package core

import (
	"context"
	"fmt"

	"repdir/internal/keyspace"
	"repdir/internal/rep"
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
// Scanning is built from the same machinery as deletion's real-successor
// search (Figure 12): a run over a read quorum, which drops ghosts by
// quorum version comparison, so stale replicas can neither hide a current
// entry nor resurrect a deleted one. It costs one round per page of
// entries returned: the read locks on the traversed range are held until
// the last page is answered (strict two-phase locking), so the result is
// a consistent snapshot, and the round that releases them is sent as the
// scan returns, unwaited for under parallel quorum. Each probe locks what
// it returns, which may reach up to a page past the end of a bounded scan.
func (s *Suite) Scan(ctx context.Context, after string, limit int) ([]KV, error) {
	return s.scan(ctx, func(tx *Tx) ([]KV, error) { return tx.Scan(ctx, after, limit) })
}

// scan runs fn, one of the scans, as a transaction of its own.
func (s *Suite) scan(ctx context.Context, fn func(tx *Tx) ([]KV, error)) (out []KV, err error) {
	err = s.runTxn(ctx, manyOps, func(tx *Tx) (err error) {
		out, err = fn(tx)
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
	return s.scan(ctx, func(tx *Tx) ([]KV, error) { return tx.ScanRange(ctx, after, until, limit) })
}

// ScanRange is the transactional form of Suite.ScanRange.
func (tx *Tx) ScanRange(ctx context.Context, after, until string, limit int) ([]KV, error) {
	return tx.ScanSpan(ctx, lowerBound(after), upperBound(until), limit)
}

// ScanSpan is ScanRange with Key-typed bounds: Low() and High() are the
// explicit "unbounded" markers, so a routing layer can compose per-shard
// subspans without the string API's ""-means-unbounded convention (under
// which a genuine minimal bound and "no bound" are indistinguishable).
// Both bounds are exclusive.
func (tx *Tx) ScanSpan(ctx context.Context, after, until keyspace.Key, limit int) ([]KV, error) {
	return tx.collect(ctx, after, until, false, limit)
}

// collect gathers the entries walk visits.
func (tx *Tx) collect(ctx context.Context, from, bound keyspace.Key, desc bool, limit int) ([]KV, error) {
	var out []KV
	if limit > 0 {
		out = make([]KV, 0, min(limit, rep.MaxBatch))
	}
	err := tx.walk(ctx, from, bound, desc, limit, func(nb neighbor) {
		out = append(out, KV{Key: nb.key.Raw(), Value: nb.value})
	})
	if err != nil || len(out) == 0 {
		return nil, err
	}
	return out, nil
}

// walk calls visit for each current entry strictly between from and
// bound, ascending or descending from from, at most limit times when
// limit > 0. Each round asks the members for as many entries as the
// caller still wants, a page when it wants them all.
func (tx *Tx) walk(ctx context.Context, from, bound keyspace.Key, desc bool, limit int, visit func(neighbor)) error {
	if !ahead(desc, bound, from) {
		// Empty span: equal or inverted bounds admit no key between
		// them. Return before the first probe — probing would read-lock
		// keys beyond the requested range and, at from == HIGH (or LOW,
		// descending), ask representatives for the neighbor of the
		// last key.
		return nil
	}
	members, err := tx.readQuorum()
	if err != nil {
		return err
	}
	r := tx.newRun(members, from, desc)
	for seen := 0; limit <= 0 || seen < limit; {
		want := rep.MaxBatch
		if limit > 0 {
			want = limit - seen
		}
		nb, err := r.next(ctx, want)
		if err != nil {
			return fmt.Errorf("scan from %s: %w", from, err)
		}
		if !ahead(desc, bound, nb.key) {
			// At or past the bound; the sentinel that ends the keyspace
			// is never short of it.
			return nil
		}
		// System entries (the replicated configuration record) are real
		// entries at the representative layer but are not user state:
		// step over them without visiting or counting.
		if isSystemKey(nb.key) {
			continue
		}
		visit(nb)
		seen++
	}
	return nil
}

// ScanReverse returns up to limit current entries with keys strictly
// less than before, in descending key order, as one atomic transaction.
// Pass before = "" to scan from the end; limit <= 0 means no limit. It
// is the mirror of Scan, built on the real-predecessor search.
func (s *Suite) ScanReverse(ctx context.Context, before string, limit int) ([]KV, error) {
	return s.scan(ctx, func(tx *Tx) ([]KV, error) { return tx.ScanReverse(ctx, before, limit) })
}

// ScanReverse is the transactional form of Suite.ScanReverse.
func (tx *Tx) ScanReverse(ctx context.Context, before string, limit int) ([]KV, error) {
	return tx.ScanReverseSpan(ctx, upperBound(before), limit)
}

// ScanReverseSpan is ScanReverse with a Key-typed bound (High() =
// unbounded). A before at or below every stored key — including Low()
// itself — returns empty with no error and no representative probes.
func (tx *Tx) ScanReverseSpan(ctx context.Context, before keyspace.Key, limit int) ([]KV, error) {
	return tx.collect(ctx, before, keyspace.Low(), true, limit)
}

// Count returns the number of current entries as one atomic transaction.
// The whole keyspace is read-locked for the duration (strict two-phase
// locking), so the total is quorum-consistent: entries installed by
// concurrent writers or repairs either commit before the count (and are
// locked out of changing mid-walk) or after it — never half-observed. It costs one round per page of rep.MaxBatch entries;
// the release round is sent as it returns, as Scan's is.
func (s *Suite) Count(ctx context.Context) (n int, err error) {
	err = s.runTxn(ctx, manyOps, func(tx *Tx) (err error) {
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
// materializing them. A run decides every key once, in order, so no key
// can be counted twice.
func (tx *Tx) CountSpan(ctx context.Context, after, until keyspace.Key) (int, error) {
	n := 0
	err := tx.walk(ctx, after, until, false, 0, func(neighbor) { n++ })
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
