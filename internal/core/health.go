package core

import (
	"sync"
	"sync/atomic"
)

// HealthState is a suite client's belief about one representative's
// reachability. The state machine is fed by quorum fan-out outcomes:
//
//	Up --failure--> Suspect --more failures--> Down --paced--> Probation
//	 ^                 |                         ^                 |
//	 |<----success-----+          +--probe fails-+                 |
//	 |<-------------probe succeeds---------------------------------+
//
// While a member is Down, quorum selection skips it outright — the
// circuit is open, so operations fast-fail over to healthy members
// instead of burning a timeout re-probing a known-dead host every
// round (the paper's footnote 6: failures that change quorums cost
// only performance; the breaker caps that cost). After ProbeAfter
// skipped rounds the member moves to Probation and the next round
// includes it as a probe: one success closes the circuit, one failure
// re-opens it.
type HealthState int

const (
	// HealthUp: the member is answering; it participates in quorums.
	HealthUp HealthState = iota + 1
	// HealthSuspect: recent failures, but not enough to open the
	// circuit; the member is still offered to quorums.
	HealthSuspect
	// HealthDown: the circuit is open; quorum selection skips the
	// member without spending a call on it.
	HealthDown
	// HealthProbation: the member is being offered to the next quorum
	// round as a probe; the outcome decides Up vs Down.
	HealthProbation
)

// String names the state.
func (s HealthState) String() string {
	switch s {
	case HealthUp:
		return "up"
	case HealthSuspect:
		return "suspect"
	case HealthDown:
		return "down"
	case HealthProbation:
		return "probation"
	default:
		return "unknown"
	}
}

// downAfter is the consecutive-failure count that opens the circuit.
// The first failure already moves Up to Suspect.
const downAfter = 3

// HealthConfig tunes the state machine. The zero value means defaults.
type HealthConfig struct {
	// ProbeAfter is how many quorum rounds a Down member is skipped
	// before it is offered again as a Probation probe (default 8).
	// Probing is paced in rounds, not wall-clock time, so schedules
	// driven from one goroutine stay deterministic.
	ProbeAfter int
}

// HealthStats counts tracker events, cumulative since construction.
type HealthStats struct {
	// Transitions counts every state change.
	Transitions uint64
	// Trips counts circuit openings (entering Down).
	Trips uint64
	// Recoveries counts returns to Up from Down or Probation.
	Recoveries uint64
	// Probes counts Probation offers (a Down member re-admitted to one
	// round to see whether it answers).
	Probes uint64
	// FastFails counts member-rounds skipped while Down — each one is a
	// probe (and over a real network, a timeout) that was not paid.
	FastFails uint64
	// Fallbacks counts rounds where skipping Down members would have
	// left no quorum, so the exclusions were waived for that round.
	Fallbacks uint64
}

// memberHealth is one member's live state.
type memberHealth struct {
	state HealthState
	fails int // consecutive failures
	skips int // rounds skipped while Down
}

// HealthTracker maintains per-member health from quorum fan-out
// outcomes and answers which members the next round should skip. It is
// safe for concurrent use. A tracker is attached to a suite with
// WithHealth.
type HealthTracker struct {
	cfg HealthConfig

	mu      sync.Mutex
	members map[string]*memberHealth

	transitions atomic.Uint64
	trips       atomic.Uint64
	recoveries  atomic.Uint64
	probes      atomic.Uint64
	fastFails   atomic.Uint64
	fallbacks   atomic.Uint64
}

// NewHealthTracker builds a tracker for the named members; names not in
// the list (e.g. zero-vote hint replicas repaired directly) are ignored
// by the report methods.
func NewHealthTracker(names []string, cfg HealthConfig) *HealthTracker {
	t := &HealthTracker{
		cfg:     cfg,
		members: make(map[string]*memberHealth, len(names)),
	}
	if t.cfg.ProbeAfter <= 0 {
		t.cfg.ProbeAfter = 8
	}
	for _, n := range names {
		t.members[n] = &memberHealth{state: HealthUp}
	}
	return t
}

// setLocked moves a member to state, counting the transition. Callers
// hold t.mu.
func (t *HealthTracker) setLocked(m *memberHealth, to HealthState) {
	if m.state == to {
		return
	}
	from := m.state
	m.state = to
	t.transitions.Add(1)
	switch {
	case to == HealthDown:
		m.skips = 0
		t.trips.Add(1)
	case to == HealthUp && (from == HealthDown || from == HealthProbation):
		t.recoveries.Add(1)
	}
}

// ReportSuccess records that a call to the member completed (any reply,
// including semantic errors, proves the member is reachable).
func (t *HealthTracker) ReportSuccess(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m, ok := t.members[name]; ok {
		m.fails = 0
		t.setLocked(m, HealthUp)
	}
}

// ReportFailure records that a call to the member found it unreachable.
func (t *HealthTracker) ReportFailure(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[name]
	if !ok {
		return
	}
	m.fails++
	switch {
	case m.state == HealthProbation, m.fails >= downAfter:
		// A failed probe re-opens the circuit for another pace.
		t.setLocked(m, HealthDown)
	case m.state == HealthUp:
		t.setLocked(m, HealthSuspect)
	}
}

// RoundExclusions returns the members the next quorum round should
// skip, advancing the probe pacing: each Down member accrues one skip,
// and one that has waited ProbeAfter rounds moves to Probation and is
// offered (not excluded) this round. The returned map is nil when
// nothing is excluded.
func (t *HealthTracker) RoundExclusions() map[string]bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out map[string]bool
	for name, m := range t.members {
		if m.state != HealthDown {
			continue
		}
		if m.skips >= t.cfg.ProbeAfter {
			t.setLocked(m, HealthProbation)
			t.probes.Add(1)
			continue
		}
		m.skips++
		t.fastFails.Add(1)
		if out == nil {
			out = make(map[string]bool)
		}
		out[name] = true
	}
	return out
}

// noteFallback counts a round that waived the exclusions to keep a
// quorum assemblable.
func (t *HealthTracker) noteFallback() { t.fallbacks.Add(1) }

// State returns the member's current state, or HealthUp for unknown
// names (the tracker never pessimizes members it does not track).
func (t *HealthTracker) State(name string) HealthState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m, ok := t.members[name]; ok {
		return m.state
	}
	return HealthUp
}

// Snapshot returns every tracked member's state.
func (t *HealthTracker) Snapshot() map[string]HealthState {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]HealthState, len(t.members))
	for name, m := range t.members {
		out[name] = m.state
	}
	return out
}

// Stats returns the tracker's cumulative counters.
func (t *HealthTracker) Stats() HealthStats {
	return HealthStats{
		Transitions: t.transitions.Load(),
		Trips:       t.trips.Load(),
		Recoveries:  t.recoveries.Load(),
		Probes:      t.probes.Load(),
		FastFails:   t.fastFails.Load(),
		Fallbacks:   t.fallbacks.Load(),
	}
}
