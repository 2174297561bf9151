// Client-side retry budgets: the other half of overload protection.
//
// The transport's admission controller (internal/transport/admit.go)
// sheds load at the server; a retry budget keeps clients from
// regenerating it. Without one, every shed or timed-out request turns
// into a retry, so offered load *grows* exactly when the system can
// least absorb it — the amplification loop behind metastable failures.
// A token-bucket budget caps retries at a fraction of recent successes:
// a healthy client (many successes) can absorb a transient blip with
// retries, while a client whose requests are mostly failing drains its
// bucket and starts surfacing errors instead of multiplying load.
//
// The budget deliberately governs only *unavailability-class* retries:
// unreachable or recovering replicas, shed (ErrOverloaded) and expired
// (ErrExpired) requests. Wait-die aborts are exempt — they are the
// deadlock-avoidance protocol working as designed under lock contention,
// their retries run against replicas that just proved they are alive,
// and capping them would break ordinary high-contention operation.
// Likewise exempt are ErrTxnDecided/ErrUnknownTxn (attempt-resolution
// races, not load).

package core

import (
	"errors"
	"sync"

	"repdir/internal/rep"
	"repdir/internal/transport"
)

// ErrBudgetExhausted reports that an operation failed on an
// unavailability-class error and the retry budget had no tokens left to
// pay for another attempt. It wraps the underlying cause (errors.Is
// still finds it); callers should treat it as "the system is degraded,
// back off" rather than retrying harder.
var ErrBudgetExhausted = errors.New("core: retry budget exhausted")

// Budget shape: each success earns a tenth of a retry (so sustained
// retry load is capped at ~10% of goodput), with a 10-token burst for
// absorbing short blips from a standing start.
const (
	defaultBudgetRatio = 0.1
	defaultBudgetBurst = 10
)

// RetryBudget is a token-bucket retry limiter, safe for concurrent use
// and intentionally shareable: pass one budget to every suite and router
// in a process so their combined retry traffic honors one cap.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	ratio  float64 // tokens earned per success
	burst  float64 // bucket capacity
}

// NewRetryBudget builds a budget that earns a tenth of a token per
// success, holds at most 10 tokens, and starts full.
func NewRetryBudget() *RetryBudget {
	return &RetryBudget{tokens: defaultBudgetBurst, ratio: defaultBudgetRatio, burst: defaultBudgetBurst}
}

// Allow consumes one token if available, reporting whether the caller
// may retry.
func (b *RetryBudget) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// OnSuccess credits the bucket with ratio tokens, up to the burst cap —
// how an exhausted budget refills once the system recovers.
func (b *RetryBudget) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// overloadClass reports the errors that are retryable *only* against a
// budget: the server explicitly refused the work (shed or expired), so
// an unbudgeted retry is exactly the amplification overload protection
// exists to prevent.
func overloadClass(err error) bool {
	return errors.Is(err, transport.ErrOverloaded) ||
		errors.Is(err, transport.ErrExpired)
}

// budgeted reports the retryable errors whose retries must consume
// budget: the unavailability class. Wait-die and attempt-resolution
// retries are free (see the package comment above).
func budgeted(err error) bool {
	return errors.Is(err, transport.ErrUnavailable) ||
		errors.Is(err, rep.ErrRecovering)
}

// DecideRetry is the one retry policy shared by suite and router loops.
// It reports whether err warrants another attempt and, when the refusal
// is specifically a drained budget, the ErrBudgetExhausted cause for the
// caller to wrap into its final error. b may be nil (no budget): then
// unavailability retries are unlimited (the legacy behavior) and
// overload-class errors (transport.ErrOverloaded, ErrExpired) are never
// retried — the safe default against retry amplification.
func DecideRetry(err error, b *RetryBudget) (retry bool, cause error) {
	if overloadClass(err) {
		if b == nil {
			return false, nil
		}
		if b.Allow() {
			return true, nil
		}
		return false, ErrBudgetExhausted
	}
	if !retryable(err) {
		return false, nil
	}
	if b != nil && budgeted(err) && !b.Allow() {
		return false, ErrBudgetExhausted
	}
	return true, nil
}
