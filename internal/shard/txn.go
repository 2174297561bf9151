package shard

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repdir/internal/core"
	"repdir/internal/keyspace"
	"repdir/internal/legs"
	"repdir/internal/quorum"
	"repdir/internal/txn"
)

// Txn is one cross-shard transaction: a core.Tx per touched shard, all
// bound to the same underlying txn.Txn so every representative touched —
// on any shard — participates in one two-phase commit. Like core.Tx, a
// Txn's operations are not safe for concurrent use by the caller; the
// router's own parallel stitching keeps each shard's Tx on a single
// goroutine. A Txn is also its transaction's memory, which the router
// reuses (Router.acquire, Txn.over).
type Txn struct {
	r *Router
	t txn.Txn
	// suites is the router's shard assignment snapshotted when the
	// transaction began; a concurrent SetSuite does not shift shards
	// under a running transaction. excludes are the members each shard's
	// earlier attempts lost.
	suites   []*core.Suite
	excludes []quorum.Set
	kept     bool // handed to a caller's fn (RunInTxn): never reused

	// mu guards lazy Tx creation; parallel stitching instantiates
	// several shards' transactions concurrently.
	mu  sync.Mutex
	txs []*core.Tx

	pages  [][]core.KV // storage for a traversal's parts
	parts  []span
	counts []int

	// The gather in progress (gather): its call, an error slot an index,
	// its calls in flight, and the func a worker runs for one index.
	do   func(int) error
	errs []error
	legs sync.WaitGroup
	leg  func(int)
}

// over hands the Txn back to the router, unless a caller may hold it.
func (x *Txn) over() {
	if x.kept {
		return
	}
	clear(x.suites)
	clear(x.pages)
	x.r.idleMu.Lock()
	x.r.idle = append(x.r.idle, x)
	x.r.idleMu.Unlock()
}

// landed is the Txn's Landed hook.
func (x *Txn) landed() { x.over(); x.r.releasing.Add(-1) }

// shardTx returns shard i's transaction, binding one on first use.
func (x *Txn) shardTx(i int) *core.Tx {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.txs[i] == nil {
		x.txs[i] = x.suites[i].AttachTx(&x.t, x.excludes[i])
	}
	return x.txs[i]
}

// Lookup reads key from its owning shard within the transaction.
func (x *Txn) Lookup(ctx context.Context, key string) (string, bool, error) {
	i, err := x.r.ownerOf(key)
	if err != nil {
		return "", false, err
	}
	return x.shardTx(i).Lookup(ctx, key)
}

// Insert creates an entry for key in its owning shard.
func (x *Txn) Insert(ctx context.Context, key, value string) error {
	i, err := x.r.ownerOf(key)
	if err != nil {
		return err
	}
	return x.shardTx(i).Insert(ctx, key, value)
}

// Update replaces the value of an existing entry.
func (x *Txn) Update(ctx context.Context, key, value string) error {
	i, err := x.r.ownerOf(key)
	if err != nil {
		return err
	}
	return x.shardTx(i).Update(ctx, key, value)
}

// Delete removes the entry for key.
func (x *Txn) Delete(ctx context.Context, key string) error {
	i, err := x.r.ownerOf(key)
	if err != nil {
		return err
	}
	return x.shardTx(i).Delete(ctx, key)
}

// Scan returns up to limit entries with keys strictly greater than
// after, ascending across all shards.
func (x *Txn) Scan(ctx context.Context, after string, limit int) ([]core.KV, error) {
	return x.scanSpan(ctx, lower(after), keyspace.High(), limit)
}

// ScanRange returns up to limit entries with after < key < until.
func (x *Txn) ScanRange(ctx context.Context, after, until string, limit int) ([]core.KV, error) {
	return x.scanSpan(ctx, lower(after), upper(until), limit)
}

// span is the slice of one shard a bounded traversal must visit, with
// the requested bounds translated into the shard's local terms: a bound
// outside the shard's range becomes the local "unbounded" sentinel.
type span struct {
	shard        int
	after, until keyspace.Key
}

// subspans intersects the requested (after, until) span with each
// shard's range, in ascending shard order. A shard whose range does not
// intersect the span — including the case where until falls exactly on
// the shard's lower split point — contributes no part, which is what
// keeps a boundary key from being consulted (and possibly returned)
// twice.
func (x *Txn) subspans(after, until keyspace.Key) []span {
	m, parts := x.r.m, x.parts[:0]
	for i := 0; i < m.Shards(); i++ {
		lo, hi := m.Lo(i), m.Hi(i)
		// No key k in [lo, hi) can satisfy after < k < until when the
		// span starts at or beyond the shard's end, or ends at or below
		// its start.
		if !after.Less(hi) || !lo.Less(until) {
			continue
		}
		p := span{shard: i, after: after, until: until}
		if p.after.Less(lo) {
			p.after = keyspace.Low()
		}
		if !p.until.Less(hi) {
			p.until = keyspace.High()
		}
		parts = append(parts, p)
	}
	x.parts = parts
	return parts
}

// scanSpan stitches a forward scan. The shard ranges are disjoint and
// ordered, so concatenating per-shard pages in shard order is the k-way
// merge; stitch verifies the strict global ordering as it goes.
func (x *Txn) scanSpan(ctx context.Context, after, until keyspace.Key, limit int) ([]core.KV, error) {
	if !after.Less(until) {
		return nil, nil
	}
	return x.stitch(ctx, x.subspans(after, until), limit, false)
}

// ScanReverse returns up to limit entries with keys strictly less than
// before, descending across all shards.
func (x *Txn) ScanReverse(ctx context.Context, before string, limit int) ([]core.KV, error) {
	return x.scanReverseSpan(ctx, upper(before), limit)
}

func (x *Txn) scanReverseSpan(ctx context.Context, before keyspace.Key, limit int) ([]core.KV, error) {
	if before.IsLow() {
		return nil, nil
	}
	// Every shard from the highest down with a key below before; one
	// before ends in or below is bounded by it, the rest are unbounded.
	parts := x.subspans(keyspace.Low(), before)
	slices.Reverse(parts)
	return x.stitch(ctx, parts, limit, true)
}

// stitch reads the parts in order, ascending or each of them descending
// from its upper bound, and joins their pages. Limited scans visit shards
// in order and stop as soon as the page fills, so earlier shards satisfy
// the limit without read-locking later ones; unlimited ones gather.
func (x *Txn) stitch(ctx context.Context, parts []span, limit int, desc bool) ([]core.KV, error) {
	x.pages = append(x.pages[:0], make([][]core.KV, len(parts))...)
	pages := x.pages
	if limit <= 0 {
		err := x.gather(len(parts), func(j int) (err error) {
			pages[j], err = x.read(ctx, parts[j], 0, desc)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	var out []core.KV
	for j, page := range pages {
		if limit > 0 {
			if len(out) >= limit {
				break
			}
			var err error
			if page, err = x.read(ctx, parts[j], limit-len(out), desc); err != nil {
				return nil, err
			}
		}
		// A page out of order with the one before means two shards
		// returned overlapping keys — a duplicated boundary key or a
		// misrouted write — and the scan fails rather than return a
		// corrupt merge.
		if len(out) > 0 && len(page) > 0 {
			if c := strings.Compare(page[0].Key, out[len(out)-1].Key); c == 0 || (c > 0) == desc {
				return nil, fmt.Errorf("shard: stitched scan out of order: %q then %q (boundary key served by two shards?)",
					out[len(out)-1].Key, page[0].Key)
			}
		}
		// The first page is the result as it is; a second is appended to
		// a copy of it, capped so that the first page's array is not.
		if out == nil {
			out = page
		} else {
			out = append(out[:len(out):len(out)], page...)
		}
	}
	return out, nil
}

// read scans one part at its shard.
func (x *Txn) read(ctx context.Context, p span, limit int, desc bool) ([]core.KV, error) {
	if desc {
		return x.shardTx(p.shard).ScanReverseSpan(ctx, p.until, limit)
	}
	return x.shardTx(p.shard).ScanSpan(ctx, p.after, p.until, limit)
}

// Count totals every shard's entries within this transaction: one
// consistent cut across the whole sharded directory, so entries being
// installed by concurrent writers or repairs are either in every
// shard's count or in none.
func (x *Txn) Count(ctx context.Context) (int, error) {
	x.counts = append(x.counts[:0], make([]int, len(x.suites))...)
	counts := x.counts
	err := x.gather(len(counts), func(j int) error {
		var err error
		counts[j], err = x.shardTx(j).Count(ctx)
		return err
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// gather runs do(0..n-1), concurrently when the router is configured for
// parallel stitching: do(0) on the calling goroutine, the rest on parked
// workers (package legs). Each index must touch a distinct shard: the
// per-shard core.Tx is single-goroutine.
func (x *Txn) gather(n int, do func(j int) error) error {
	if !x.r.parallel || n < 2 {
		for j := 0; j < n; j++ {
			if err := do(j); err != nil {
				return err
			}
		}
		return nil
	}
	x.do, x.errs = do, append(x.errs[:0], make([]error, n)...)
	x.legs.Add(n - 1)
	for j := 1; j < n; j++ {
		legs.Go(x.leg, j)
	}
	x.errs[0] = do(0)
	x.legs.Wait()
	x.do = nil
	for _, err := range x.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// lower maps the string API's "" to "from the beginning".
func lower(after string) keyspace.Key {
	if after == "" {
		return keyspace.Low()
	}
	return keyspace.New(after)
}

// upper maps "" to "to the end".
func upper(until string) keyspace.Key {
	if until == "" {
		return keyspace.High()
	}
	return keyspace.New(until)
}
