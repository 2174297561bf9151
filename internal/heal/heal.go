// Package heal runs anti-entropy for a directory suite: Repair brings
// one member fully current with a paced, traced core.RepairReplica pass
// that retries transient peer errors in place, and Converge repeats
// passes over every member until one finds nothing to do. The caller
// decides when a member needs it — back from an outage, rebuilding lost
// storage, or newly added. Keyspace (arXiv:1209.3913) calls this
// catch-up replication and treats it as the availability workhorse of a
// replicated store; here it is the mechanism that recovers the
// performance the paper's footnote 6 says failures cost.
//
// The healer is deliberately dumb about safety: every entry it installs
// and every gap it coalesces goes through the suite's ordinary
// range-locked transactions at versions a read quorum vouched for, so
// version dominance — not the healer — guarantees that racing updates
// and deletes win and that repairs are idempotent.
package heal

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repdir/internal/core"
	"repdir/internal/lock"
	"repdir/internal/obs"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// Config tunes the healer. The zero value means defaults.
type Config struct {
	// PageSize is the number of segments repaired per transaction
	// (default core.DefaultRepairPageSize).
	PageSize int
	// Pace is an optional sleep between repair pages, bounding the
	// extra load a catch-up pass puts on a live suite (default 0: run
	// flat out).
	Pace time.Duration
	// RepairTimeout bounds one member's repair pass (default 1m).
	RepairTimeout time.Duration
	// Obs, when non-nil, traces each repair pass (one span per
	// committed page) and feeds the "heal" latency histogram. The
	// per-page repair transactions are additionally observed by the
	// suite's own observer, if it has one.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.PageSize <= 0 {
		c.PageSize = core.DefaultRepairPageSize
	}
	if c.RepairTimeout <= 0 {
		c.RepairTimeout = time.Minute
	}
	return c
}

// Stats counts the healer's cumulative work.
type Stats struct {
	// Started, Completed, Failed count repair passes.
	Started, Completed, Failed uint64
	// Scanned, Copied, Freshened total the entry work across all
	// passes, Gaps the gap segments coalesced; Pages counts committed
	// repair transactions.
	Scanned, Copied, Freshened, Gaps, Pages uint64
	// Retries counts pass attempts re-run after a transient peer error
	// (an unavailable or still-recovering member, a wait-die loss). Each
	// retry restarts the pass; passes are idempotent, so only time is
	// lost.
	Retries uint64
}

// Healer repairs a suite's members on request. Construct with New.
type Healer struct {
	suite   *core.Suite
	cfg     Config
	targets map[string]rep.Directory

	started   atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	scanned   atomic.Uint64
	copied    atomic.Uint64
	freshened atomic.Uint64
	pages     atomic.Uint64
	gaps      atomic.Uint64
	retries   atomic.Uint64
}

// New builds a healer over the suite for the given repair targets
// (typically the same rep.Directory handles the quorum configuration
// uses, so repairs route through the identical middleware stack).
func New(suite *core.Suite, targets []rep.Directory, cfg Config) *Healer {
	h := &Healer{
		suite:   suite,
		cfg:     cfg.withDefaults(),
		targets: make(map[string]rep.Directory, len(targets)),
	}
	for _, t := range targets {
		h.targets[t.Name()] = t
	}
	return h
}

// Repair runs one repair pass for member: the member ends fully
// current, every current entry installed, every ghost purged and every
// gap version brought up to the quorum maximum (core.RepairReplica).
// That serves a member back from an outage and one rebuilding lost
// storage alike; for the latter, the caller flips it out of recovering
// mode (rep.Rep.SetRecovering(false)) once the pass returns cleanly.
// onPage, when non-nil, observes the cumulative stats after each
// committed page, before the pace sleep, letting callers chart recovery
// over time.
//
// A pass reads whole quorums for every segment, so one flaky peer
// mid-pass would otherwise fail it and leave the member behind (or,
// rebuilding, in recovering mode) until someone noticed. The pass is
// idempotent, so transient errors are retried in place with bounded
// backoff; only persistent failure (or the repair timeout) surfaces.
func (h *Healer) Repair(ctx context.Context, member string, onPage func(core.RepairStats)) (core.RepairStats, error) {
	target, ok := h.targets[member]
	if !ok {
		return core.RepairStats{}, fmt.Errorf("heal: unknown member %q", member)
	}
	h.started.Add(1)
	start := time.Now()
	trace := h.cfg.Obs.StartTrace("heal " + member)
	pageSpan := trace.StartSpan("page")
	rctx, cancel := context.WithTimeout(ctx, h.cfg.RepairTimeout)
	defer cancel()
	var stats core.RepairStats
	var err error
	for attempt := 0; ; attempt++ {
		var prev core.RepairStats
		stats, err = core.RepairReplica(rctx, h.suite, target, core.RepairOptions{
			PageSize: h.cfg.PageSize,
			OnPage: func(cum core.RepairStats) error {
				pageSpan.End()
				pageSpan = trace.StartSpan("page")
				h.pages.Add(1)
				h.scanned.Add(uint64(cum.Scanned - prev.Scanned))
				h.copied.Add(uint64(cum.Copied - prev.Copied))
				h.freshened.Add(uint64(cum.Freshened - prev.Freshened))
				h.gaps.Add(uint64(cum.Gaps - prev.Gaps))
				prev = cum
				if onPage != nil {
					onPage(cum)
				}
				if h.cfg.Pace > 0 {
					sleep := trace.StartSpan("pace")
					t := time.NewTimer(h.cfg.Pace)
					defer t.Stop()
					select {
					case <-t.C:
					case <-rctx.Done():
					}
					sleep.End()
				}
				return rctx.Err()
			},
		})
		if err == nil || attempt >= passRetries || !transient(err) || rctx.Err() != nil {
			break
		}
		h.retries.Add(1)
		wait := trace.StartSpan("retry-backoff")
		t := time.NewTimer(passRetryBase << attempt)
		select {
		case <-t.C:
		case <-rctx.Done():
		}
		t.Stop()
		wait.End()
	}
	pageSpan.End()
	trace.Finish(err, 0)
	h.cfg.Obs.OpDone("heal", time.Since(start), 0, err)
	if err != nil {
		h.failed.Add(1)
		return stats, err
	}
	h.completed.Add(1)
	return stats, nil
}

// Pass retry policy: up to passRetries re-runs of a transiently failed
// pass, backing off passRetryBase doubled per attempt (25, 50, 100,
// 200ms) — all inside the repair timeout.
const (
	passRetries   = 4
	passRetryBase = 25 * time.Millisecond
)

// transient reports whether a pass failure is worth retrying in place:
// a peer that is unreachable, still recovering, or won a wait-die
// conflict may well be fine a moment later. Everything else (context
// expiry, semantic errors) surfaces immediately.
func transient(err error) bool {
	return errors.Is(err, transport.ErrUnavailable) ||
		errors.Is(err, rep.ErrRecovering) ||
		errors.Is(err, lock.ErrDie)
}

// ErrNotConverged reports that Converge's pass budget ran out while
// repairs were still finding work — only possible when the suite is
// being mutated concurrently.
var ErrNotConverged = errors.New("heal: replicas still diverging after max passes")

// Converge repairs every target, repeating whole-suite passes until a
// full pass finds nothing to copy or freshen — at which point every
// replica physically holds every current entry at its current version,
// and no ghost.
// On a quiesced suite one pass plus one confirming pass suffices;
// Converge allows a few extra in case repairs race live traffic, and
// returns ErrNotConverged (with the work totals) if the budget runs
// out. Members are repaired in sorted-name order, so the pass is
// deterministic.
func (h *Healer) Converge(ctx context.Context) (core.RepairStats, error) {
	var total core.RepairStats
	names := make([]string, 0, len(h.targets))
	for n := range h.targets {
		names = append(names, n)
	}
	sort.Strings(names)
	const maxPasses = 6
	for pass := 0; pass < maxPasses; pass++ {
		var work core.RepairStats
		for _, n := range names {
			stats, err := h.Repair(ctx, n, nil)
			work.Add(stats)
			if err != nil {
				total.Add(work)
				return total, fmt.Errorf("heal: converge %s: %w", n, err)
			}
		}
		total.Add(work)
		if work.Copied == 0 && work.Freshened == 0 {
			return total, nil
		}
	}
	return total, ErrNotConverged
}

// Stats returns the healer's cumulative counters.
func (h *Healer) Stats() Stats {
	return Stats{
		Started:   h.started.Load(),
		Completed: h.completed.Load(),
		Failed:    h.failed.Load(),
		Scanned:   h.scanned.Load(),
		Copied:    h.copied.Load(),
		Freshened: h.freshened.Load(),
		Pages:     h.pages.Load(),
		Gaps:      h.gaps.Load(),
		Retries:   h.retries.Load(),
	}
}
