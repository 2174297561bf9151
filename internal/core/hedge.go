// Hedged reads: tail-latency insurance for quorum lookups.
//
// A quorum read is as slow as its slowest probe, so one member having a
// bad moment (GC pause, queue spike, slow link) puts that moment
// straight into the operation's tail. Hedging bounds the damage: when a
// per-member lookup probe has been outstanding longer than the observed
// p99 probe latency, the suite fires the same probe at a spare store
// member outside the read quorum and takes whichever answer arrives
// first, cancelling the loser. Because the trigger is the p99, hedges
// fire on ~1% of probes — the extra load is bounded by construction,
// unlike naive duplicate-everything schemes.
//
// Correctness: the spare's reply substitutes for the slow member's slot
// in the quorum only if the spare carries at least as many votes, so
// the substituted read set still intersects every write quorum. In a
// point read the spare's probe is one-shot like the primary's, and
// neither leaves a lock behind, whichever wins. In any other
// transaction the spare joins as a reader before its probe fires
// (txn.JoinReader is concurrency-safe), so its read lock is released
// with everyone else's. Witnesses are never spares (no values), and
// members excluded by earlier failures are not considered.

package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/obs"
	"repdir/internal/quorum"
	"repdir/internal/rep"
)

// Hedging defaults: never hedge before 1ms (duplicating sub-millisecond
// probes buys nothing and doubles read traffic), never wait past 100ms
// to hedge (by then the probe is clearly stuck), and require a modest
// sample before trusting the histogram at all.
const (
	defaultHedgeFloor  = time.Millisecond
	defaultHedgeCeil   = 100 * time.Millisecond
	hedgeWarmupProbes  = 64
	hedgeRefreshProbes = 256
)

// hedgeState tracks per-probe lookup latency and derives the hedge
// delay from its p99. Safe for concurrent use.
type hedgeState struct {
	floor, ceil time.Duration
	hist        obs.Histogram
	n           atomic.Uint64
	// delay caches the clamped p99 in nanoseconds (0 = not warmed up);
	// recomputing the histogram quantile on every probe would put a
	// snapshot on the read hot path, so it refreshes every
	// hedgeRefreshProbes observations instead.
	delay atomic.Int64
}

// observe feeds one probe's latency and periodically refreshes the
// cached delay.
func (h *hedgeState) observe(d time.Duration) {
	h.hist.Observe(d)
	n := h.n.Add(1)
	if n < hedgeWarmupProbes || n%hedgeRefreshProbes != 0 && h.delay.Load() != 0 {
		return
	}
	p99 := h.hist.Snapshot().Quantile(0.99)
	if p99 < h.floor {
		p99 = h.floor
	}
	if p99 > h.ceil {
		p99 = h.ceil
	}
	h.delay.Store(int64(p99))
}

// hedgeDelay returns how long a probe may be outstanding before its
// hedge fires, or 0 while the estimator is still warming up (no
// hedging until the p99 means something).
func (h *hedgeState) hedgeDelay() time.Duration {
	return time.Duration(h.delay.Load())
}

// WithHedgedReads enables hedged quorum-read probes: a per-member
// lookup probe outstanding longer than the observed p99 probe latency
// (clamped to [1ms, 100ms]) is raced against a spare store member,
// first answer wins. Fires on ~1% of probes by construction. Most
// useful together with WithParallelQuorum over a real network.
func WithHedgedReads() Option {
	return func(s *Suite) { s.hedge = &hedgeState{floor: defaultHedgeFloor, ceil: defaultHedgeCeil} }
}

// hedgeRound is one quorum-read round with hedging armed: the spares
// its probes may claim. It is made new for each round, because a losing
// probe may still hold it after.
type hedgeRound struct {
	tx     *Tx
	mu     sync.Mutex
	spares []member
	used   quorum.Set
}

// newHedgeRound lists the store members eligible to back up this
// round's probes: outside the read quorum, not witnesses (no values),
// not excluded by earlier failures.
func (tx *Tx) newHedgeRound(members []member) *hedgeRound {
	h := &hedgeRound{tx: tx}
	skip := indexes(members) | tx.exclude
	for _, m := range tx.suite.members {
		if !m.Witness && !skip.Has(m.idx) {
			h.spares = append(h.spares, m)
		}
	}
	return h
}

// claim takes a spare that carries at least minVotes.
func (h *hedgeRound) claim(minVotes int) (member, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.spares {
		if !h.used.Has(s.idx) && s.Votes >= minVotes {
			h.used.Add(s.idx)
			return s, true
		}
	}
	return member{}, false
}

// lookup is one slot's probe of a hedged round. It races the slot's
// member against at most one spare; a spare substitutes for a member
// only if it carries at least as many votes, so the effective read set
// still intersects every write quorum. The winner's reply is the slot's
// and the loser is cancelled. A primary that fails before the hedge
// delay simply fails (failover across retries is the transaction retry
// loop's job, and conflating it with hedging would turn every outage
// into doubled traffic) — with one exception: an overload-class refusal
// (ErrOverloaded / ErrExpired) fires the spare immediately. The refused
// member is alive and explicitly asking to lose traffic, the spare is
// by construction outside the hot read quorum, and without the failover
// an uncoordinated per-member shed fails whole quorum rounds at
// compounding rates — each member shedding fraction p fails ~2p of
// rounds, which is exactly the retry-amplification spiral admission
// control exists to prevent.
//
// The loser's probe may still be running when the round, the operation
// and the Tx's next operation are over. So a probe is handed what it
// needs by value — the transaction ID, the key, a context that is not
// the Tx's — and answers into a channel made here: it never reads the
// Tx and never writes a slot.
func (h *hedgeRound) lookup(ctx context.Context, m member, id lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	tx, est := h.tx, h.tx.suite.hedge
	start := time.Now()
	delay := est.hedgeDelay()
	if delay == 0 || len(h.spares) == 0 {
		r, err := m.Dir.Lookup(ctx, id, key)
		est.observe(time.Since(start))
		return r, err
	}
	type probeRes struct {
		r     rep.LookupResult
		err   error
		hedge bool
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel() // release the loser
	ch := make(chan probeRes, 2)
	probe := func(d rep.Directory, hedge bool) {
		r, err := d.Lookup(pctx, id, key)
		ch <- probeRes{r: r, err: err, hedge: hedge}
	}
	go probe(m.Dir, false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	timerC := timer.C
	hedgeFired := false
	hedgeFailed := false
	var primaryErr *probeRes
	fire := func() bool {
		sp, ok := h.claim(m.Votes)
		if !ok {
			return false
		}
		hedgeFired = true
		tx.suite.counters.hedgedReads.Add(1)
		tx.hedgeMsgs.Add(1)
		tx.joinReader(sp.Dir)
		go probe(sp.Dir, true)
		return true
	}
	defer func() { est.observe(time.Since(start)) }()
	for {
		select {
		case <-timerC:
			timerC = nil
			fire() // no eligible spare: just wait the primary out
		case res := <-ch:
			if res.err == nil {
				if res.hedge {
					tx.suite.counters.hedgeWins.Add(1)
				}
				return res.r, nil
			}
			if res.hedge {
				hedgeFailed = true
				if primaryErr != nil {
					// Both legs failed: report the primary's error, so
					// exclusion and health accounting blame the right
					// member.
					return primaryErr.r, primaryErr.err
				}
				// The hedge failed first; the primary is still in
				// flight and remains the slot's answer.
				continue
			}
			// The primary failed. An overload-class refusal fails over
			// to the spare right now — don't wait out a hedge delay for
			// a member that answered instantly with "go away".
			if !hedgeFired && overloadClass(res.err) {
				timerC = nil
				if fire() {
					r := res
					primaryErr = &r
					continue
				}
			}
			// With no hedge in flight (or one that already failed too)
			// the slot fails now; otherwise hold the error and wait for
			// the hedge's verdict.
			if !hedgeFired || hedgeFailed {
				return res.r, res.err
			}
			r := res
			primaryErr = &r
		}
	}
}
