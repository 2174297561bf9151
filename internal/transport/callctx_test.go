package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
)

// ctxSpy is a served representative that reports, for every Lookup, how
// the call ended and what its request context had come to hold by then.
type ctxSpy struct {
	*rep.Rep
	seen chan ctxSeen
}

type ctxSeen struct {
	err   error
	took  time.Duration
	armed bool
}

func (d ctxSpy) Lookup(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	start := time.Now()
	res, err := d.Rep.Lookup(ctx, id, key)
	d.seen <- ctxSeen{err: err, took: time.Since(start), armed: ctx.(*callCtx).Armed()}
	return res, err
}

// TestRequestContextTimerIsLazy: a request that never blocks makes no
// channel and arms no timer, and one whose deadline passes while it
// waits in the lock manager is still woken by it — the timer its wait
// armed — and fails with DeadlineExceeded, on time.
func TestRequestContextTimerIsLazy(t *testing.T) {
	spy := ctxSpy{Rep: rep.New("lazy"), seen: make(chan ctxSeen, 1)}
	srv, err := Serve(spy, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := keyspace.New("k")

	free, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c.Lookup(rep.MarkOneShot(free), 1, key); err != nil {
		t.Fatal(err)
	}
	if seen := <-spy.seen; seen.err != nil || seen.armed {
		t.Errorf("a lookup that never blocked: %+v, want no error, no timer, no channel", seen)
	}

	// Transaction 20 holds the key's lock; the older 10 must wait for it.
	if err := c.Insert(ctx, 20, key, 1, "held"); err != nil {
		t.Fatal(err)
	}
	const budget = 100 * time.Millisecond
	blocked, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if _, err := c.Lookup(blocked, 10, key); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("client side of the blocked lookup = %v, want DeadlineExceeded", err)
	}
	select {
	case seen := <-spy.seen:
		if !errors.Is(seen.err, context.DeadlineExceeded) || !seen.armed {
			t.Errorf("a lookup blocked past its deadline: %+v, want DeadlineExceeded from an armed timer", seen)
		}
		if seen.took < budget/2 || seen.took > budget+2*time.Second {
			t.Errorf("the handler was released after %v, want about %v", seen.took, budget)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the handler is still waiting for the lock: its deadline never fired")
	}
	if err := c.Abort(ctx, 20); err != nil {
		t.Fatal(err)
	}
}

// TestCallCtx covers the request context on its own: what it answers
// for, that Err goes by the clock with no timer armed, and that a
// settled context stays settled.
func TestCallCtx(t *testing.T) {
	at := time.Now().Add(time.Hour)
	c := &callCtx{epoch: 300, marks: rep.PrepareMark}
	c.Set(at)
	if d, ok := c.Deadline(); !ok || !d.Equal(at) {
		t.Errorf("Deadline = %v, %v", d, ok)
	}
	if rep.EpochFromContext(c) != 300 || !rep.PrepareRides(c) || rep.OneShot(c) || rep.Around(c) {
		t.Errorf("epoch %d, prepare %v, once %v, around %v; want 300 and the prepare mark alone",
			rep.EpochFromContext(c), rep.PrepareRides(c), rep.OneShot(c), rep.Around(c))
	}
	if c.Value("some other key") != nil {
		t.Error("Value answered for a key that is not its own")
	}
	for m, marked := range map[rep.Marks]func(context.Context) bool{
		rep.OneShotMark: rep.OneShot, rep.PrepareMark: rep.PrepareRides, rep.AroundMark: rep.Around,
	} {
		if !marked(&callCtx{marks: m}) || marked(&callCtx{marks: ^m}) {
			t.Errorf("mark %#x: the context does not answer for exactly the bits it was given", m)
		}
	}
	if rep.EpochFromContext(&callCtx{}) != 0 {
		t.Error("a request without an epoch carries one")
	}
	if c.Err() != nil {
		t.Errorf("Err before the deadline = %v", c.Err())
	}

	late := &callCtx{}
	late.Set(time.Now().Add(-time.Millisecond))
	if !errors.Is(late.Err(), context.DeadlineExceeded) || late.Armed() {
		t.Errorf("Err past the deadline = %v (armed: %v), want DeadlineExceeded by the clock", late.Err(), late.Armed())
	}
	select {
	case <-late.Done():
	default:
		t.Error("Done of an expired context is open")
	}
	if late.End(context.Canceled); !errors.Is(late.Err(), context.DeadlineExceeded) {
		t.Errorf("a settled context changed its mind: %v", late.Err())
	}

	done := c.Done()
	select {
	case <-done:
		t.Fatal("Done closed an hour early")
	default:
	}
	c.End(context.Canceled)
	select {
	case <-done:
	default:
		t.Error("the handler returned and Done stayed open")
	}
	if !errors.Is(c.Err(), context.Canceled) {
		t.Errorf("Err after the handler returned = %v", c.Err())
	}
}
