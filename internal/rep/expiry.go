package rep

import (
	"context"
	"sync"
	"time"
)

// Expiry is the part of a call's context that answers for its deadline,
// for a context its owner builds without context.WithDeadline: the
// transport's per-request context, and the one a transaction's decided
// rounds run under. A call that never waits on Done costs no channel and
// no timer — the first Done makes both — and Err goes by the clock, so a
// call that only polls still sees the deadline pass. The owner embeds an
// Expiry, answers Value itself, Ends it (or lets it Idle) when the call
// is over, and may Set it again for another.
type Expiry struct {
	mu    sync.Mutex
	at    time.Time
	done  chan struct{} // made by the first Done
	timer *time.Timer   // armed by the first Done, if the call is still live
	err   error         // set once: the deadline passed, or End
}

// Set readies e for a call due at the given time. A channel that neither
// a deadline nor End has closed serves this call too, its timer re-armed.
func (e *Expiry) Set(at time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.at = at
	switch {
	case e.err != nil:
		e.done, e.timer, e.err = nil, nil, nil
	case e.timer != nil:
		e.timer.Reset(time.Until(at))
	}
}

// Idle ends a call that nothing waits on any more without closing e: the
// timer stops, and the channel stays open for the next Set.
func (e *Expiry) Idle() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.timer != nil {
		e.timer.Stop()
	}
}

func (e *Expiry) Deadline() (time.Time, bool) { return e.at, true }

func (e *Expiry) Done() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done == nil {
		done := make(chan struct{})
		if e.done = done; e.err != nil {
			close(done)
		} else {
			// By the clock: a firing that Set overtook ends nothing.
			e.timer = time.AfterFunc(time.Until(e.at), func() { e.end(nil, done) })
		}
	}
	return e.done
}

func (e *Expiry) Err() error { return e.end(nil, nil) }

// End ends the context with err unless it has ended already.
func (e *Expiry) End(err error) { e.end(err, nil) }

// Armed reports whether something has waited on Done.
func (e *Expiry) Armed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.done != nil
}

// end ends the context with err — or, given nil, with DeadlineExceeded
// once the deadline has passed — unless it has ended already, and
// returns what it ended with: nil while it is live. A timer names the
// channel it was armed for (of), and ends no later one.
func (e *Expiry) end(err error, of chan struct{}) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err == nil && !time.Now().Before(e.at) {
		err = context.DeadlineExceeded
	}
	if e.err == nil && err != nil && (of == nil || of == e.done) {
		e.err = err
		if e.done != nil {
			close(e.done)
		}
		if e.timer != nil {
			e.timer.Stop()
		}
	}
	return e.err
}
