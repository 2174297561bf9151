package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/version"
)

// Versioned is what a Session reads and writes through: the
// version-returning operations and the one-member local read. *Suite
// and *shard.Router both implement it; local reads need WithLocalReads
// on the suite, or on each shard's suite.
type Versioned interface {
	LookupV(ctx context.Context, key string) (string, bool, version.V, error)
	UpdateV(ctx context.Context, key, value string) (version.V, error)
	InsertV(ctx context.Context, key, value string) (version.V, error)
	LocalLookup(ctx context.Context, key string) (string, bool, version.V, error)
}

var _ Versioned = (*Suite)(nil)

// Session is one client's view of the directory with session guarantees
// layered over the suite's single-copy semantics:
//
//   - Read-your-writes: every write through the session records the
//     version it installed as a per-key floor; a read may never return
//     an older version for that key.
//   - Monotonic reads: quorum reads advance the floor too, so a later
//     read can never travel back in time past an earlier one.
//
// On the fast path, reads go to the target's designated local member
// (WithLocalReads) — one message instead of a read quorum. The
// local reply is trusted only while two checks hold: the session's lease
// on the member is unexpired, and the reply's version meets the key's
// floor. Either failing falls back to a quorum read (which also renews
// the lease — a successful quorum round is proof the configuration
// still stands). Under a sticky write-quorum policy the local member
// sees every write, so fallbacks measure genuine staleness, not policy
// noise.
//
// The lease here is a client-side staleness bound, not a server-granted
// invalidation lease: a local read can return data at most LeaseTTL
// staler than the last quorum-confirmed view for keys written by other
// clients through quorums excluding the member. The floor makes the
// session's own writes immune to even that window.
type Session struct {
	dir      Versioned
	leaseTTL time.Duration

	mu     sync.Mutex
	floors map[string]version.V
	lease  time.Time // lease valid until this instant

	localReads     atomic.Uint64
	localFallbacks atomic.Uint64
}

// NewSession opens a session over dir with the given lease TTL. The
// lease starts expired; the first read takes the quorum path and renews
// it.
func NewSession(dir Versioned, leaseTTL time.Duration) *Session {
	return &Session{
		dir:      dir,
		leaseTTL: leaseTTL,
		floors:   make(map[string]version.V),
	}
}

// floor returns the session's version floor for key (Lowest if none).
func (s *Session) floor(key string) version.V {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floors[key]
}

// raiseFloor records that the session observed or installed ver for key.
func (s *Session) raiseFloor(key string, ver version.V) {
	s.mu.Lock()
	if ver > s.floors[key] {
		s.floors[key] = ver
	}
	s.mu.Unlock()
}

// renewLease extends the lease after a successful quorum round.
func (s *Session) renewLease() {
	s.mu.Lock()
	s.lease = time.Now().Add(s.leaseTTL)
	s.mu.Unlock()
}

// leaseValid reports whether the local member may serve this read.
func (s *Session) leaseValid() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Now().Before(s.lease)
}

// Stats returns how many lookups were served locally vs fell back to a
// quorum read.
func (s *Session) Stats() (localReads, localFallbacks uint64) {
	return s.localReads.Load(), s.localFallbacks.Load()
}

// Lookup reads key under the session guarantees: local member first
// while the lease holds and the floor is met, quorum read otherwise.
func (s *Session) Lookup(ctx context.Context, key string) (string, bool, error) {
	if s.leaseValid() {
		value, found, ver, err := s.dir.LocalLookup(ctx, key)
		if err == nil && ver >= s.floor(key) {
			s.localReads.Add(1)
			s.raiseFloor(key, ver)
			return value, found, nil
		}
		// Stale local copy, or the member is unreachable/fenced: pay
		// the quorum read. Deliberately not an error path — staleness
		// is an expected, counted outcome.
		s.localFallbacks.Add(1)
	}
	value, found, ver, err := s.dir.LookupV(ctx, key)
	if err != nil {
		return "", false, err
	}
	s.raiseFloor(key, ver)
	s.renewLease()
	return value, found, nil
}

// Update writes key through a write quorum and raises the floor to the
// installed version, making the write visible to every later session
// read.
func (s *Session) Update(ctx context.Context, key, value string) error {
	ver, err := s.dir.UpdateV(ctx, key, value)
	if err != nil {
		return err
	}
	s.raiseFloor(key, ver)
	s.renewLease()
	return nil
}

// Insert creates key and raises the floor to the installed version.
func (s *Session) Insert(ctx context.Context, key, value string) error {
	ver, err := s.dir.InsertV(ctx, key, value)
	if err != nil {
		return err
	}
	s.raiseFloor(key, ver)
	s.renewLease()
	return nil
}
