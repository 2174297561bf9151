// Package fault injects deterministic, seed-driven faults between a
// directory suite and its representatives, and into the logs beneath
// them (Member.LoseStorage, RunCrashPoints). A Member is a
// transport.Middleware whose hook is the member itself, so it is a
// rep.Directory like any other connection, and imposes, per call:
//
//   - latency, injected on a fraction of calls (Plan.PDelay), drawn
//     uniformly in [0, Plan.MaxLatency);
//   - unavailability windows (transport.ErrUnavailable), either
//     partitions (state intact) or crashes (volatile state dropped, the
//     representative rebuilt from its write-ahead log via rep.Recover
//     when the window ends — so recovery and in-doubt two-phase-commit
//     state are exercised on every restart);
//   - mid-transaction failures: the call executes at the target but the
//     reply is replaced with ErrUnavailable (PDropReply), or the member
//     crashes immediately after executing (PCrashAfter) — both leave the
//     caller unable to tell whether the operation took effect;
//   - duplicate re-delivery: the operation is delivered twice under the
//     same transaction ID, modeling a retransmitted message whose first
//     copy was actually processed.
//
// All decisions are drawn from a per-member math/rand stream seeded from
// the plan seed, and unavailability windows are measured in observed
// calls rather than wall-clock time. A driver that issues operations
// from one goroutine, and drains the suite (core.Suite.Drain,
// shard.Router.Drain) between them, therefore gets a fully reproducible
// fault schedule for a given seed — even with parallel quorum fan-out,
// which issues at most one concurrent call per member per round. That
// holds by construction, not by a sequential loop in the suite: every
// operation sends a member one call a round, a delete too — its reads
// are one neighborhood call a member (rep.MarkAround). The drain is the
// driver's part: a read-only operation returns before the round that
// releases its locks has been answered, and without it that round's
// calls could meet the next operation's at a member in either order.
package fault

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/wal"
)

// Plan parameterizes a member's fault schedule. Probabilities are per
// delivered call; an all-zero plan injects nothing.
type Plan struct {
	// PCrash is the chance a call finds the member freshly crashed:
	// volatile state (in-flight transactions, their locks) is lost, and
	// the member stays unavailable for a down-window before restarting
	// from its write-ahead log.
	PCrash float64
	// PCrashAfter is the chance the member executes the call and then
	// crashes before replying — the caller sees ErrUnavailable for an
	// operation that happened. Hitting a Prepare this way manufactures
	// an in-doubt transaction that recovery must reconstruct.
	PCrashAfter float64
	// PPartition is the chance a call opens an unavailability window
	// with state intact (a network partition rather than a crash).
	PPartition float64
	// PDropReply is the chance the call executes but its reply is
	// replaced with ErrUnavailable.
	PDropReply float64
	// PDuplicate is the chance the call is delivered twice under the
	// same transaction ID; the second reply is returned.
	PDuplicate float64
	// PDelay is the chance a delivered call is held for a latency drawn
	// uniformly in [0, MaxLatency). Delays are injected as an occasional
	// fault rather than a per-call tax: sub-millisecond sleeps cost far
	// more wall-clock than they nominally ask for (runtime timer
	// granularity), and rare longer stalls shake out goroutine
	// interleavings better than a uniform trickle.
	PDelay float64
	// DownMin and DownMax bound the length of crash and partition
	// windows, counted in calls observed while down (each rejected call
	// shortens the window by one, so a member the suite keeps probing
	// comes back, deterministically, after DownMin..DownMax rejections).
	DownMin, DownMax int
	// MaxLatency bounds the per-call injected latency; zero disables
	// latency injection.
	MaxLatency time.Duration
}

// DefaultPlan is a moderately hostile schedule suitable for soaks: a
// few dozen crash/partition windows and a steady trickle of duplicate
// and dropped-reply deliveries per ten thousand calls.
func DefaultPlan() Plan {
	return Plan{
		PCrash:      0.003,
		PCrashAfter: 0.002,
		PPartition:  0.005,
		PDropReply:  0.004,
		PDuplicate:  0.010,
		PDelay:      0.02,
		DownMin:     4,
		DownMax:     40,
		MaxLatency:  300 * time.Microsecond,
	}
}

// Stats counts what a member injected.
type Stats struct {
	// Calls counts deliveries attempted (including rejected ones).
	Calls uint64
	// Rejected counts calls bounced with ErrUnavailable while down.
	Rejected uint64
	// Crashes and Partitions count opened windows; CrashAfters counts
	// crashes injected after executing a call.
	Crashes, CrashAfters, Partitions uint64
	// DroppedReplies and Duplicates count mid-transaction failures and
	// double deliveries.
	DroppedReplies, Duplicates uint64
	// Restarts counts recoveries from the write-ahead log.
	Restarts uint64
	// StorageLosses counts storage failures injected with LoseStorage.
	StorageLosses uint64
}

// Member is one in-process representative that can crash: it owns the
// representative's write-ahead log, its current incarnation and its
// up/down state, and injects its plan's faults as a
// transport.Middleware that is its own hook. A zero Plan injects
// nothing; the member still crashes when told to (Crash, LoseStorage).
// A crash fences the dead incarnation: its log handle is closed, so a
// call still running on it cannot append (wal.ErrClosed), and every
// call that entered it fails its reply, as a dead process answers
// nothing. The zero value is not usable; construct with NewMember.
type Member struct {
	transport.Middleware
	name string
	opts []rep.Option // every incarnation's, after its rep.WithLog

	mu             sync.Mutex
	plan           Plan
	rng            *rand.Rand
	log            *wal.MemoryLog // the next restart's; the incarnation's until it crashes
	target         *rep.Rep
	incarnation    uint64 // counts crashes
	down           int    // calls left in a window the plan opened
	held           bool   // crashed by hand: down until Heal
	suspended      bool
	lost           bool // crashed: the end of the window restarts from the log
	pendingRebuild bool // storage was lost: recovering mode until RebuildDone
	restartErr     error
	stats          Stats
}

// NewMember builds a write-ahead-logged representative wrapped in a
// fault member whose crashes drop volatile state and whose restarts
// rebuild it with rep.Recover from the log. Extra rep options
// (rep.AsWitness, ...) apply to the initial representative and to
// every restart.
func NewMember(name string, plan Plan, seed int64, opts ...rep.Option) *Member {
	m := &Member{
		name: name,
		opts: opts,
		plan: plan,
		rng:  rand.New(rand.NewSource(seed)),
		log:  &wal.MemoryLog{},
	}
	m.target = rep.New(name, m.repOpts()...)
	m.Hook = m
	return m
}

// repOpts are the options of an incarnation writing m.log.
func (m *Member) repOpts() []rep.Option {
	return append([]rep.Option{rep.WithLog(m.log)}, m.opts...)
}

// decision is everything one delivery drew from the member's stream.
type decision struct {
	unavailable bool
	target      *rep.Rep
	incarnation uint64
	delay       time.Duration
	duplicate   bool
	dropReply   bool
	crashAfter  bool
}

// decide draws one delivery's faults. All randomness happens here,
// under the lock, so the per-member decision sequence is a pure
// function of the seed and the call order.
func (m *Member) decide() decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Calls++
	if m.down > 0 || m.held {
		m.stats.Rejected++
		if m.down > 0 {
			m.down--
			if m.down == 0 {
				m.restartLocked()
			}
		}
		return decision{unavailable: true}
	}
	d := decision{target: m.target, incarnation: m.incarnation}
	if m.suspended {
		// Maintenance window: deliver cleanly and draw nothing from the
		// decision stream, so the schedule resumes where it left off.
		return d
	}
	roll := m.rng.Float64()
	switch {
	case roll < m.plan.PCrash:
		m.crashLocked()
		m.stats.Rejected++
		return decision{unavailable: true}
	case roll < m.plan.PCrash+m.plan.PPartition:
		m.down = m.windowLocked()
		m.stats.Partitions++
		m.stats.Rejected++
		return decision{unavailable: true}
	}
	if m.plan.MaxLatency > 0 && m.rng.Float64() < m.plan.PDelay {
		d.delay = time.Duration(m.rng.Int63n(int64(m.plan.MaxLatency)))
	}
	d.duplicate = m.rng.Float64() < m.plan.PDuplicate
	d.dropReply = m.rng.Float64() < m.plan.PDropReply
	d.crashAfter = m.rng.Float64() < m.plan.PCrashAfter
	return d
}

// windowLocked draws a down-window length; callers hold m.mu.
func (m *Member) windowLocked() int {
	lo, hi := m.plan.DownMin, m.plan.DownMax
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo + m.rng.Intn(hi-lo+1)
}

// crashLocked opens a crash window; callers hold m.mu.
func (m *Member) crashLocked() {
	m.down = m.windowLocked()
	m.fenceLocked()
	m.stats.Crashes++
}

// fenceLocked kills the current incarnation, once; callers hold m.mu.
// Its log handle closes and the member keeps a reopened copy for the
// restart, and the calls that entered it fail their replies at Exit.
func (m *Member) fenceLocked() {
	if m.lost {
		return
	}
	m.lost = true
	m.incarnation++
	m.log = m.log.Reopen()
}

// restartLocked ends a down window; callers hold m.mu. After a crash
// the representative is rebuilt from its write-ahead log: committed
// state returns, in-flight transactions are gone, and prepared-but-
// undecided transactions come back in doubt with their locks held.
func (m *Member) restartLocked() {
	if !m.lost || m.held {
		return
	}
	t, err := rep.Recover(m.name, m.log.Records(), m.repOpts()...)
	if err != nil {
		// Keep the member down; Heal and later restart attempts retry.
		// The error is surfaced through Heal.
		m.restartErr = err
		m.down = 1
		return
	}
	m.target = t
	m.lost = false
	m.restartErr = nil
	m.stats.Restarts++
	if m.pendingRebuild {
		// The log this incarnation replayed is damaged: it may have
		// forgotten acknowledged writes, including deletions that live
		// only in gap versions. Its answers must not reach quorums until
		// a rebuild from peers reconciles it (RebuildDone).
		t.SetRecovering(true)
	}
}

// sleep waits for the injected latency, honoring the caller's context.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Enter implements transport.Hook: it draws the delivery's faults, so
// the decision stream advances once per call, in call order. A member
// inside a down window refuses; a delivered call waits out its delay and
// goes to the current incarnation, twice when duplicated.
func (m *Member) Enter(ctx context.Context, _ transport.Op) (transport.Call, error) {
	d := m.decide()
	if d.unavailable {
		return transport.Call{}, transport.ErrUnavailable
	}
	if err := sleep(ctx, d.delay); err != nil {
		return transport.Call{}, err
	}
	if d.duplicate {
		m.mu.Lock()
		m.stats.Duplicates++
		m.mu.Unlock()
	}
	return transport.Call{Ctx: ctx, Dir: d.target, Twice: d.duplicate, Note: d}, nil
}

// Exit implements transport.Hook: a call whose incarnation crashed
// under it, one that crashed the member after executing, and a dropped
// reply all replace the reply with ErrUnavailable.
func (m *Member) Exit(c transport.Call, _ transport.Op, err error) error {
	d := c.Note.(decision)
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case d.incarnation != m.incarnation:
		return transport.ErrUnavailable
	case d.crashAfter:
		if m.down == 0 {
			m.crashLocked()
			m.stats.Crashes-- // counted as CrashAfters instead
			m.stats.CrashAfters++
		}
		return transport.ErrUnavailable
	case d.dropReply && err == nil:
		m.stats.DroppedReplies++
		return transport.ErrUnavailable
	}
	return err
}

// Heal ends any open down window immediately, restarting a crashed
// member from its log, and returns the restart error if rebuilding
// failed.
func (m *Member) Heal() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.held = false
	m.down = 0
	m.restartLocked()
	return m.restartErr
}

// Crash kills the current incarnation, as if PCrash had fired, also
// inside a partition window: volatile state is lost, and the member is
// down until Heal restarts it from its log. Windows the plan opens go
// on counting calls meanwhile.
func (m *Member) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.lost {
		m.fenceLocked()
		m.stats.Crashes++
	}
	m.held = true
}

// LoseStorage injects a storage failure: a deterministic fraction of
// the member's log tail is destroyed and the member crashes. When its
// down window ends (or Heal runs) it restarts from the damaged log in
// recovering mode — reads bounce with rep.ErrRecovering, because the
// restarted state may have forgotten acknowledged writes, including
// deletions that live only in gap versions — and stays that way until
// RebuildDone after a rebuild-from-peers pass (core.RepairReplica)
// has reconciled it. Returns how many log records were destroyed, zero
// once the log is empty.
func (m *Member) LoseStorage() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	frac := 0.25 + 0.75*m.rng.Float64()
	if m.down == 0 && !m.held {
		m.crashLocked()
		m.stats.Crashes-- // counted as a storage loss, not a plain crash
	} else {
		m.fenceLocked() // whatever the window was, the restart must replay
	}
	m.pendingRebuild = true
	m.stats.StorageLosses++
	return m.log.DropTail(max(int(float64(len(m.log.Records()))*frac), 1))
}

// RebuildDone clears recovering mode after a successful rebuild: the
// member serves reads again.
func (m *Member) RebuildDone() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pendingRebuild = false
	m.target.SetRecovering(false)
}

// Quiesce zeroes the member's plan, stopping all future injection; an
// open down window still needs Heal to end. Drivers quiesce before
// their final resolution and audit phases so those validate state
// rather than fault tolerance.
func (m *Member) Quiesce() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.plan = Plan{}
}

// Suspend pauses (true) or resumes (false) injection without
// discarding the plan: suspended deliveries pass through cleanly and
// consume nothing from the decision stream. Drivers use it for
// operator-style maintenance windows in the middle of a soak — work
// that must eventually finish (a reconfiguration's catch-up pass)
// after its under-fire attempts have been exercised. An open down
// window still needs Heal to end.
func (m *Member) Suspend(v bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.suspended = v
}

// Up reports whether the member is currently reachable.
func (m *Member) Up() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down == 0 && !m.held
}

// Stats returns a snapshot of the member's injection counters.
func (m *Member) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Rep returns the current incarnation of the representative.
func (m *Member) Rep() *rep.Rep {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.target
}

// InDoubt lists the prepared-but-undecided transactions held by the
// current incarnation, or nil while the member is down (a crashed
// member's in-doubt set is unknowable until it restarts).
func (m *Member) InDoubt() []lock.TxnID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down > 0 || m.held {
		return nil
	}
	return m.target.InDoubt()
}

// Name implements transport.Hook (and so rep.Directory). The name is
// stable across restarts.
func (m *Member) Name() string { return m.name }
