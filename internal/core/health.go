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

// HealthTransition reports one state change, delivered to OnTransition
// subscribers (e.g. an anti-entropy healer watching for recoveries).
type HealthTransition struct {
	Member   string
	From, To HealthState
}

// Recovered reports whether the transition is a return to service from
// an open circuit — the moment an anti-entropy repair pass becomes
// worthwhile.
func (t HealthTransition) Recovered() bool {
	return t.To == HealthUp && (t.From == HealthDown || t.From == HealthProbation)
}

// HealthConfig tunes the state machine. The zero value means defaults.
type HealthConfig struct {
	// SuspectAfter is the consecutive-failure count that moves Up to
	// Suspect (default 1).
	SuspectAfter int
	// DownAfter is the consecutive-failure count that opens the circuit
	// (default 3).
	DownAfter int
	// ProbeAfter is how many quorum rounds a Down member is skipped
	// before it is offered again as a Probation probe (default 8).
	// Probing is paced in rounds, not wall-clock time, so schedules
	// driven from one goroutine stay deterministic.
	ProbeAfter int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.DownAfter < c.SuspectAfter {
		c.DownAfter = c.SuspectAfter
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = 8
	}
	return c
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
	subs    []func(HealthTransition)

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
		cfg:     cfg.withDefaults(),
		members: make(map[string]*memberHealth, len(names)),
	}
	for _, n := range names {
		t.members[n] = &memberHealth{state: HealthUp}
	}
	return t
}

// OnTransition subscribes fn to every state change. Subscriptions must
// be made before the tracker is shared; fn runs synchronously on the
// goroutine that reported the outcome and must not call back into the
// tracker.
func (t *HealthTracker) OnTransition(fn func(HealthTransition)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.subs = append(t.subs, fn)
}

// setLocked moves a member to state, recording the transition. Callers
// hold t.mu; fired transitions are returned for delivery after unlock.
func (t *HealthTracker) setLocked(name string, m *memberHealth, to HealthState) (HealthTransition, bool) {
	if m.state == to {
		return HealthTransition{}, false
	}
	tr := HealthTransition{Member: name, From: m.state, To: to}
	m.state = to
	t.transitions.Add(1)
	if to == HealthDown {
		m.skips = 0
		t.trips.Add(1)
	}
	if tr.Recovered() {
		t.recoveries.Add(1)
	}
	return tr, true
}

// publish delivers transitions to subscribers outside the lock.
func (t *HealthTracker) publish(subs []func(HealthTransition), trs []HealthTransition) {
	for _, tr := range trs {
		for _, fn := range subs {
			fn(tr)
		}
	}
}

// ReportSuccess records that a call to the member completed (any reply,
// including semantic errors, proves the member is reachable).
func (t *HealthTracker) ReportSuccess(name string) {
	t.mu.Lock()
	m, ok := t.members[name]
	if !ok {
		t.mu.Unlock()
		return
	}
	m.fails = 0
	tr, fired := t.setLocked(name, m, HealthUp)
	subs := t.subs
	t.mu.Unlock()
	if fired {
		t.publish(subs, []HealthTransition{tr})
	}
}

// ReportFailure records that a call to the member found it unreachable.
func (t *HealthTracker) ReportFailure(name string) {
	t.mu.Lock()
	m, ok := t.members[name]
	if !ok {
		t.mu.Unlock()
		return
	}
	m.fails++
	var trs []HealthTransition
	switch {
	case m.state == HealthProbation:
		// The probe failed; re-open the circuit for another pace.
		if tr, ok := t.setLocked(name, m, HealthDown); ok {
			trs = append(trs, tr)
		}
	case m.fails >= t.cfg.DownAfter:
		if tr, ok := t.setLocked(name, m, HealthDown); ok {
			trs = append(trs, tr)
		}
	case m.fails >= t.cfg.SuspectAfter && m.state == HealthUp:
		if tr, ok := t.setLocked(name, m, HealthSuspect); ok {
			trs = append(trs, tr)
		}
	}
	subs := t.subs
	t.mu.Unlock()
	t.publish(subs, trs)
}

// RoundExclusions returns the members the next quorum round should
// skip, advancing the probe pacing: each Down member accrues one skip,
// and one that has waited ProbeAfter rounds moves to Probation and is
// offered (not excluded) this round. The returned map is nil when
// nothing is excluded.
func (t *HealthTracker) RoundExclusions() map[string]bool {
	t.mu.Lock()
	var out map[string]bool
	var trs []HealthTransition
	for name, m := range t.members {
		if m.state != HealthDown {
			continue
		}
		if m.skips >= t.cfg.ProbeAfter {
			if tr, ok := t.setLocked(name, m, HealthProbation); ok {
				trs = append(trs, tr)
			}
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
	subs := t.subs
	t.mu.Unlock()
	t.publish(subs, trs)
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
