package transport

import (
	"context"
	"sync"
	"time"

	"repdir/internal/rep"
)

// Local is an in-process connection to a representative with fault
// injection: the target can be crashed (calls fail with ErrUnavailable)
// and a fixed per-call latency can be added. It is a Middleware whose
// hook is the Local itself. Local is safe for concurrent use.
type Local struct {
	Middleware

	mu      sync.Mutex
	target  rep.Directory
	down    bool
	latency time.Duration
}

// NewLocal wraps a representative.
func NewLocal(target rep.Directory) *Local {
	l := &Local{target: target}
	l.Hook = l
	return l
}

// Crash makes subsequent calls fail with ErrUnavailable.
func (l *Local) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = true
}

// Restart makes the representative reachable again. The underlying state
// is whatever the wrapped representative holds; pair with rep.Recover to
// model a crash that loses volatile state.
func (l *Local) Restart() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = false
}

// Replace swaps the wrapped representative — modeling a machine that
// came back from a failure with different local state, e.g. an empty
// representative after its storage was lost and archived.
func (l *Local) Replace(target rep.Directory) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.target = target
}

// dir returns the current wrapped representative.
func (l *Local) dir() rep.Directory {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.target
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
func (l *Local) Name() string { return l.dir().Name() }

// Enter implements Hook: a crashed representative refuses the call, and
// the latency is waited out, honoring the caller's context, before the
// call goes to the representative current after the wait.
func (l *Local) Enter(ctx context.Context, _ Op) (Call, error) {
	l.mu.Lock()
	target, down, latency := l.target, l.down, l.latency
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
		target = l.dir()
	}
	return Call{Ctx: ctx, Dir: target}, nil
}

// Exit implements Hook; the call's error passes through.
func (*Local) Exit(_ Call, _ Op, err error) error { return err }
