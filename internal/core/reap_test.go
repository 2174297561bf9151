package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repdir/internal/fault"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/txn"
)

// stillClock is a rep.Clock that moves only when advance moves it, and
// runs the timers that fall due on the caller's goroutine.
type stillClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*stillTimer
}

type stillTimer struct {
	c     *stillClock
	at    time.Time
	f     func()
	armed bool
}

func (c *stillClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stillClock) AfterFunc(d time.Duration, f func()) rep.Timer {
	t := &stillTimer{c: c, f: f}
	c.mu.Lock()
	c.timers = append(c.timers, t)
	c.mu.Unlock()
	t.Reset(d)
	return t
}

func (t *stillTimer) Reset(d time.Duration) bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.armed
	t.at, t.armed = t.c.now.Add(d), true
	return was
}

func (c *stillClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []*stillTimer
	for _, t := range c.timers {
		if t.armed && !t.at.After(c.now) {
			t.armed = false
			due = append(due, t)
		}
	}
	c.mu.Unlock()
	for _, t := range due {
		t.f()
	}
}

// TestDeadCoordinatorReaped: a coordinator that took its locks and died
// before its prepare — an attached transaction nobody finishes — holds
// them at the members only until its deadline, when each member aborts
// it on its own, with nothing sweeping: another client then writes the
// key at once. A late call of the dead transaction is refused, and so is
// a call after a member restarted between two calls of a live one.
func TestDeadCoordinatorReaped(t *testing.T) {
	ctx := context.Background()
	clk := &stillClock{}
	in := fault.NewInjector([]string{"A", "B", "C"}, fault.Plan{}, 1, rep.WithClock(clk))
	cfg := quorum.NewUniform(in.Directories(), 2, 2)
	ids := txn.NewIDSource(9) // the suite's too: no two transactions share an ID
	s, err := NewSuite(cfg, WithIDSource(ids))
	if err != nil {
		t.Fatal(err)
	}
	reps := func() (out []*rep.Rep) {
		for _, m := range in.Members() {
			out = append(out, m.Rep())
		}
		return out
	}

	dead := txn.New(ids.Next())
	tx := s.AttachTx(dead, 0)
	if err := tx.Insert(ctx, "k", "dead"); err != nil {
		t.Fatal(err)
	}
	// The coordinator dies here: no prepare, no abort.
	clk.advance(rep.CallTimeout)
	var reaped uint64
	for _, r := range reps() {
		if n := r.Locks().ActiveTransactions(); n != 0 {
			t.Errorf("%s: %d transactions hold locks past the deadline", r.Name(), n)
		}
		reaped += r.Counters().Reaped
	}
	if reaped == 0 {
		t.Error("no member reaped the dead transaction")
	}
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Insert(wctx, "k", "live"); err != nil {
		t.Fatalf("insert after the reap: %v", err)
	}
	if _, _, err := tx.Lookup(ctx, "k"); !errors.Is(err, rep.ErrUnknownTxn) {
		t.Errorf("the dead transaction's late lookup = %v, want ErrUnknownTxn", err)
	}

	live := txn.New(ids.Next())
	tx = s.AttachTx(live, 0)
	if _, _, err := tx.Lookup(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	for _, m := range in.Members() {
		m.Crash()
	}
	if err := in.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(ctx, "k", "lost"); !errors.Is(err, rep.ErrUnknownTxn) {
		t.Errorf("a write after the members restarted = %v, want ErrUnknownTxn", err)
	}
	if err := live.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _, err := s.Lookup(ctx, "k"); err != nil || v != "live" {
		t.Errorf("lookup = %q, %v; want the live insert", v, err)
	}
}
