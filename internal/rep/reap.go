package rep

import (
	"context"
	"time"

	"repdir/internal/lock"
)

// CallTimeout caps a call's deadline at a member served over TCP, and is
// the lease of a transaction whose calls carry none: each call renews it.
const CallTimeout = 30 * time.Second

// Clock is where a representative reads time to reap its strays, and
// Timer the one timer it re-arms: package time's unless WithClock.
type (
	Clock interface {
		Now() time.Time
		AfterFunc(d time.Duration, f func()) Timer
	}
	Timer interface{ Reset(d time.Duration) bool }
)

type wallClock struct{}

func (wallClock) Now() time.Time                            { return time.Now() }
func (wallClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// WithClock makes the representative reap by c.
func WithClock(c Clock) Option { return func(r *Rep) { r.clock = c } }

// budget is what is left of a call's deadline, or the lease.
func budget(ctx context.Context) time.Duration {
	if d, ok := ctx.Deadline(); ok {
		return time.Until(d)
	}
	return CallTimeout
}

// renew sets st's deadline to a call's budget from now on r's clock, so
// that a clock standing still reaps nothing early, and arms the reaper
// for it. Callers hold r.mu.
func (r *Rep) renew(st *txnState, left time.Duration) {
	now := r.clock.Now()
	if st.due = now.Add(left); r.reapAt.IsZero() || st.due.Before(r.reapAt) {
		r.arm(now, st.due)
	}
}

// arm sets the reaper's timer for at; callers hold r.mu.
func (r *Rep) arm(now, at time.Time) {
	if r.reapAt = at; r.reaper == nil {
		r.reaper = r.clock.AfterFunc(at.Sub(now), r.reap)
	} else {
		r.reaper.Reset(at.Sub(now))
	}
}

// reap aborts, as Abort does but logging nothing, every transaction past
// its deadline that never logged a prepare — presumed abort makes that
// the member's own decision — and re-arms for the next deadline.
func (r *Rep) reap() {
	var reaped []lock.TxnID
	r.mu.Lock()
	now := r.clock.Now()
	r.reapAt = time.Time{}
	for id, st := range r.txns {
		switch {
		case st.logged:
		case !now.Before(st.due):
			_ = r.drop(id, st) // fails only in a log step, and it logged nothing
			reaped = append(reaped, id)
		case r.reapAt.IsZero() || st.due.Before(r.reapAt):
			r.reapAt = st.due
		}
	}
	if !r.reapAt.IsZero() {
		r.arm(now, r.reapAt)
	}
	r.mu.Unlock()
	for _, id := range reaped {
		r.locks.ReleaseAll(id)
	}
	r.stats.reaped.Add(uint64(len(reaped)))
}
