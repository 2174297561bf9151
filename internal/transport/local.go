package transport

import (
	"context"
	"sync"
	"time"

	"repdir/internal/rep"
)

// Local is an in-process connection to a representative that can be
// partitioned and slowed: while partitioned (Partition, until Heal)
// calls that enter fail with ErrUnavailable, and a fixed per-call
// latency can be added. A partition leaves the representative's state
// intact, and a call that entered before it runs on and its reply
// passes; a crash, which loses volatile state, is fault.Member's. Local
// is a Middleware whose hook is the Local itself, and is safe for
// concurrent use.
type Local struct {
	Middleware

	target  rep.Directory
	mu      sync.Mutex
	down    bool
	latency time.Duration
}

// NewLocal wraps a representative.
func NewLocal(target rep.Directory) *Local {
	l := &Local{target: target}
	l.Hook = l
	return l
}

// Partition makes subsequent calls fail with ErrUnavailable.
func (l *Local) Partition() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = true
}

// Heal makes the representative reachable again.
func (l *Local) Heal() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = false
}

// SetLatency adds a fixed delay to every call.
func (l *Local) SetLatency(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.latency = d
}

// Up reports whether the representative is reachable.
func (l *Local) Up() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.down
}

// Name implements Hook (and so rep.Directory).
func (l *Local) Name() string { return l.target.Name() }

// Enter implements Hook: a partitioned representative refuses the call,
// and the latency is waited out, honoring the caller's context.
func (l *Local) Enter(ctx context.Context, _ Op) (Call, error) {
	l.mu.Lock()
	down, latency := l.down, l.latency
	l.mu.Unlock()
	if down {
		return Call{}, ErrUnavailable
	}
	if latency > 0 {
		t := time.NewTimer(latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return Call{}, ctx.Err()
		}
	}
	return Call{Ctx: ctx, Dir: l.target}, nil
}

// Exit implements Hook; the call's error passes through.
func (*Local) Exit(_ Call, _ Op, err error) error { return err }
