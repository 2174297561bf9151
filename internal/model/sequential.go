package model

import (
	"fmt"
	"sort"
	"sync"
)

// Certainty grades how much the sequential specification knows about a
// key after a history of operations that may include indeterminate
// failures.
type Certainty int

const (
	// Full: presence and value are both known. This is the zero value
	// on purpose: to a single sequential client a key no operation ever
	// targeted is certainly absent, so map misses read as full
	// knowledge of absence.
	Full Certainty = iota
	// PresenceOnly: whether the key exists is known, but not its value
	// (e.g. an Insert against an uncertain key reported ErrKeyExists:
	// the key is certainly present, with some committed value).
	PresenceOnly
	// Unknown: the last mutation of the key failed ambiguously (it may
	// or may not have committed), so neither presence nor value is
	// trusted until a successful operation re-anchors the key.
	Unknown
)

// String names the certainty level.
func (c Certainty) String() string {
	switch c {
	case Unknown:
		return "unknown"
	case PresenceOnly:
		return "presence-only"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Certainty(%d)", int(c))
	}
}

// keyState is the specification's belief about one key. The zero value
// (absent, Full) is correct for keys never operated on.
type keyState struct {
	present bool
	value   string
	level   Certainty
}

// Sequential is a sequential single-copy specification of the directory:
// the state a non-replicated map would hold after the same operation
// history. A chaos driver applies every completed operation to it and
// checks every successful observation against it.
//
// Failed mutations are the crux. A mutation that returns an error may
// still have taken effect — the commit point is every writer holding a
// prepare record, which an attempt can pass while its coordinator sees
// a lost reply, or an internal retry can commit before the attempt that
// finally reports failure — so
// a failed mutation downgrades its key to Unknown rather than assuming
// either outcome. The next successful observation of the key re-anchors
// it: quorum intersection plus strict two-phase locking guarantee that
// once any read returns a post-commit-point state, no later read
// returns an earlier one, so anchoring on observations is sound.
//
// Sequential is safe for concurrent use, but note that with concurrent
// clients a "certain" belief is only meaningful per disjoint key range;
// the chaos soak drives it from one goroutine.
type Sequential struct {
	mu         sync.Mutex
	keys       map[string]keyState
	violations []string
}

// NewSequential returns an empty specification: every key absent, Full.
func NewSequential() *Sequential {
	return &Sequential{keys: make(map[string]keyState)}
}

// Applied records a successful mutation: Insert/Update set present with
// the written value; Delete sets absent.
func (s *Sequential) Applied(key, value string, present bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[key] = keyState{present: present, value: value, level: Full}
}

// Indeterminate records a mutation that failed ambiguously: the key's
// presence and value are untrusted until re-anchored.
func (s *Sequential) Indeterminate(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[key] = keyState{level: Unknown}
}

// CheckLookup validates a successful Lookup against the specification
// and reconciles uncertainty: an Unknown key adopts the observation
// (value and presence), a PresenceOnly key adopts the value; a Full or
// PresenceOnly contradiction is recorded and returned as a violation.
func (s *Sequential) CheckLookup(key, value string, found bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.keys[key]
	switch st.level {
	case Unknown:
		s.keys[key] = keyState{present: found, value: value, level: Full}
		return nil
	case PresenceOnly:
		if found != st.present {
			return s.violate("lookup %s = (%q,%v) contradicts presence-only spec (present=%v)",
				key, value, found, st.present)
		}
		s.keys[key] = keyState{present: found, value: value, level: Full}
		return nil
	default:
		if found != st.present {
			return s.violate("lookup %s = (%q,%v) contradicts spec (%q,%v)",
				key, value, found, st.value, st.present)
		}
		if found && value != st.value {
			return s.violate("lookup %s = %q, spec has %q", key, value, st.value)
		}
		return nil
	}
}

// InsertExists reconciles an Insert that reported the key already
// present. Never a violation: if the specification believed the key
// certainly absent, the only writer that can have materialized it is an
// earlier partially-committed attempt of this very insert, so the key
// now certainly holds this insert's value. Otherwise the key is present
// with an unknown value.
func (s *Sequential) InsertExists(key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.keys[key]
	if st.level == Full && !st.present {
		s.keys[key] = keyState{present: true, value: value, level: Full}
		return
	}
	if st.level == Full && st.present {
		return // consistent; keep the known value
	}
	s.keys[key] = keyState{present: true, level: PresenceOnly}
}

// UpdateNotFound reconciles an Update that reported the key missing. An
// update attempt can never remove a key, so this contradicts a key known
// to be present; against an uncertain key it anchors absence.
func (s *Sequential) UpdateNotFound(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.keys[key]
	if st.level != Unknown && st.present {
		return s.violate("update %s reported not-found but spec has it present", key)
	}
	s.keys[key] = keyState{present: false, level: Full}
	return nil
}

// DeleteNotFound reconciles a Delete that reported the key missing.
// Never a violation, even when the key was believed present: an earlier
// attempt of this very delete may have passed its commit point before
// the attempt that finally reported. Either way the key is absent now.
func (s *Sequential) DeleteNotFound(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[key] = keyState{present: false, level: Full}
}

// Get returns the specification's belief about a key.
func (s *Sequential) Get(key string) (value string, present bool, level Certainty) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.keys[key]
	return st.value, st.present, st.level
}

// CountBounds returns the bounds the specification places on the
// directory's live-entry count: min counts keys certainly present
// (Full present or PresenceOnly), max additionally counts every key
// whose last mutation failed ambiguously and so may or may not exist.
// A Count observed between operations of a sequential driver must fall
// inside [min, max]; once every key has been re-anchored (e.g. by the
// final audit) the bounds collapse to an exact expected count.
func (s *Sequential) CountBounds() (min, max int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.keys {
		switch {
		case st.level == Unknown:
			max++
		case st.present:
			min++
			max++
		}
	}
	return min, max
}

// Keys lists every key the specification has seen, sorted.
func (s *Sequential) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.keys))
	for k := range s.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Violations returns every contradiction recorded so far.
func (s *Sequential) Violations() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.violations...)
}

// violate records and returns a violation; callers hold s.mu.
func (s *Sequential) violate(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	s.violations = append(s.violations, msg)
	return fmt.Errorf("model: %s", msg)
}
