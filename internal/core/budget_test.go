package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// newBudget builds a budget of another shape than NewRetryBudget's,
// starting full.
func newBudget(ratio float64, burst int) *RetryBudget {
	return &RetryBudget{tokens: float64(burst), ratio: ratio, burst: float64(burst)}
}

// level reads the bucket.
func (b *RetryBudget) level() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

func TestRetryBudgetTokenBucket(t *testing.T) {
	if b := NewRetryBudget(); b.level() != defaultBudgetBurst || b.ratio != defaultBudgetRatio {
		t.Fatalf("NewRetryBudget = %v tokens at ratio %v, want a full %d-token bucket at %v",
			b.level(), b.ratio, defaultBudgetBurst, defaultBudgetRatio)
	}
	b := newBudget(0.5, 2)
	if !b.Allow() || !b.Allow() {
		t.Fatal("budget should start full")
	}
	if b.Allow() {
		t.Fatal("empty bucket should refuse")
	}
	// Two successes at ratio 0.5 earn one token.
	b.OnSuccess()
	b.OnSuccess()
	if !b.Allow() {
		t.Fatal("refilled bucket should allow")
	}
	// The bucket never exceeds its burst cap.
	for i := 0; i < 100; i++ {
		b.OnSuccess()
	}
	if got := b.level(); got != 2 {
		t.Fatalf("tokens = %v, want capped at 2", got)
	}
}

func TestDecideRetryPolicy(t *testing.T) {
	full := NewRetryBudget()
	empty := newBudget(0.1, 1)
	empty.Allow() // drain

	cases := []struct {
		name      string
		err       error
		b         *RetryBudget
		retry     bool
		wantCause error
	}{
		// Wait-die is deadlock avoidance, never budgeted: it retries even
		// on a drained budget.
		{"die_nil_budget", lock.ErrDie, nil, true, nil},
		{"die_empty_budget", lock.ErrDie, empty, true, nil},
		// Unavailability retries are free without a budget, budgeted with.
		{"unavailable_nil", transport.ErrUnavailable, nil, true, nil},
		{"unavailable_full", transport.ErrUnavailable, full, true, nil},
		{"unavailable_empty", transport.ErrUnavailable, empty, false, ErrBudgetExhausted},
		// Overload-class errors retry ONLY against a budget.
		{"overloaded_nil", transport.ErrOverloaded, nil, false, nil},
		{"overloaded_full", transport.ErrOverloaded, full, true, nil},
		{"overloaded_empty", transport.ErrOverloaded, empty, false, ErrBudgetExhausted},
		{"expired_nil", transport.ErrExpired, nil, false, nil},
		// Semantic errors are final regardless.
		{"semantic", ErrKeyExists, full, false, nil},
		{"stale_epoch", rep.ErrStaleEpoch, full, false, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			retry, cause := DecideRetry(fmt.Errorf("op: %w", c.err), c.b)
			if retry != c.retry || !errors.Is(cause, c.wantCause) || (c.wantCause == nil && cause != nil) {
				t.Fatalf("DecideRetry = (%v, %v), want (%v, %v)", retry, cause, c.retry, c.wantCause)
			}
		})
	}
}

// shedDir wraps a representative and, while switched on, sheds every
// data-path call with ErrOverloaded — an overloaded server's admission
// controller as seen from the client. 2PC resolution always passes,
// exactly like the real controller's sheddability rule.
type shedDir struct {
	*transport.Middleware
	on atomic.Bool
}

func newShedDir(inner rep.Directory) *shedDir {
	s := &shedDir{}
	s.Middleware = transport.Wrap(inner, func(op transport.Op) error {
		switch op {
		case transport.OpPrepare, transport.OpCommit, transport.OpAbort:
			return nil
		}
		if s.on.Load() {
			return fmt.Errorf("%w: chaos shed %s", transport.ErrOverloaded, inner.Name())
		}
		return nil
	})
	return s
}

// TestBudgetExhaustionSurfacesFast is the chaos-style regression from
// the overload issue: a suite whose replicas shed 100% of its requests
// must surface ErrBudgetExhausted long before the caller's deadline
// instead of retrying until context cancellation — and the budget must
// refill once the replicas recover. (Shed replicas are alive, so they
// are never excluded; without the budget this loop would retry every
// remaining attempt against servers begging it to stop.)
func TestBudgetExhaustionSurfacesFast(t *testing.T) {
	ctx := context.Background()
	sheds := []*shedDir{newShedDir(rep.New("A")), newShedDir(rep.New("B")), newShedDir(rep.New("C"))}
	dirs := []rep.Directory{sheds[0], sheds[1], sheds[2]}
	cfg := quorum.NewUniform(dirs, 2, 2)
	budget := newBudget(0.5, 4)
	suite, err := NewSuite(cfg, WithRetryBudget(budget))
	if err != nil {
		t.Fatal(err)
	}

	// Healthy phase: populate and earn budget.
	if err := suite.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}

	// 100% shed: every data-path call fails with ErrOverloaded.
	for _, s := range sheds {
		s.on.Store(true)
	}
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	start := time.Now()
	_, _, err = suite.Lookup(dctx, "k")
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("lookup under total shed = %v, want ErrBudgetExhausted", err)
	}
	if !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("root cause lost from %v", err)
	}
	if dctx.Err() != nil {
		t.Fatal("operation burned the whole deadline instead of giving up on budget")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("took %v to surface exhaustion; budget should stop retries almost immediately", elapsed)
	}
	if suite.Stats().BudgetExhausted == 0 {
		t.Fatal("BudgetExhausted counter did not move")
	}

	// Recovery: successes earn tokens back, so budgeted retries work
	// again.
	for _, s := range sheds {
		s.on.Store(false)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := suite.Lookup(ctx, "k"); err != nil {
			t.Fatalf("lookup after recovery: %v", err)
		}
	}
	if got := budget.level(); got < 1 {
		t.Fatalf("budget did not refill after recovery: %v tokens", got)
	}
}
