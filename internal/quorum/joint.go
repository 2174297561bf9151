package quorum

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Joint pairs the old and new configurations during a reconfiguration
// handoff (epoch e+1 of a two-phase transition). A joint quorum must
// satisfy BOTH configurations' thresholds: a joint read quorum holds at
// least Old.R votes of old members and New.R votes of new members, and
// likewise for writes. That is what makes the handoff safe:
//
//   - every joint read quorum intersects every old write quorum
//     (it contains >= Old.R old votes, and Old.R + Old.W > old total),
//     so nothing written under the old configuration can be missed; and
//   - every joint write quorum intersects every new read quorum, so
//     nothing written during the handoff can be missed afterwards.
//
// Members present in both configurations may carry different votes on
// each side (reweighting); a selected member contributes its old votes
// to the old threshold and its new votes to the new threshold.
type Joint struct {
	Old Config
	New Config
}

// Validate checks both sides independently.
func (j Joint) Validate() error {
	if err := j.Old.Validate(); err != nil {
		return fmt.Errorf("quorum: joint old side: %w", err)
	}
	if err := j.New.Validate(); err != nil {
		return fmt.Errorf("quorum: joint new side: %w", err)
	}
	return nil
}

// Union returns the member union of both sides, old-config order first
// then new-only members, one entry per representative name. For members
// on both sides the new side's vote weight and witness flag win (they
// describe where the system is heading); the union is what a joint
// suite fans out over.
func (j Joint) Union() []Member {
	seen := make(map[string]int)
	var out []Member
	for _, m := range j.Old.Members {
		seen[m.Dir.Name()] = len(out)
		out = append(out, m)
	}
	for _, m := range j.New.Members {
		if i, ok := seen[m.Dir.Name()]; ok {
			out[i].Votes = m.Votes
			out[i].Witness = m.Witness
			continue
		}
		seen[m.Dir.Name()] = len(out)
		out = append(out, m)
	}
	return out
}

// Config renders the joint configuration as a degenerate Config usable
// as a suite configuration: the member union with R = W = total votes.
// It exists so core.NewSuite's validation passes; actual quorum
// selection must come from a JointSelector, which enforces the real
// two-sided thresholds.
func (j Joint) Config(epoch uint64) Config {
	members := j.Union()
	total := 0
	for _, m := range members {
		total += m.Votes
	}
	return Config{Epoch: epoch, Members: members, R: total, W: total}
}

// JointSelector assembles quorums satisfying both sides of a Joint. It
// indexes over Union(), which is the member list of the Config the
// joint suite runs under, so its indexes are that configuration's.
// Candidates are drawn in random order (seeded, deterministic) with
// witnesses last, mirroring RandomSelector.
type JointSelector struct {
	j Joint
	// oldVotes and newVotes are each union member's votes on either
	// side, zero where it is not a member.
	oldVotes, newVotes []int
	base               shuffle

	mu  sync.Mutex
	rng *rand.Rand
}

var _ Selector = (*JointSelector)(nil)

// NewJointSelector builds a joint selector with a deterministic seed.
func NewJointSelector(j Joint, seed int64) *JointSelector {
	union := j.Union()
	s := &JointSelector{
		j:        j,
		oldVotes: make([]int, len(union)),
		newVotes: make([]int, len(union)),
		base:     newShuffle(union),
		rng:      rand.New(rand.NewSource(seed)),
	}
	for i, u := range union {
		if m, ok := j.Old.MemberByName(u.Dir.Name()); ok {
			s.oldVotes[i] = m.Votes
		}
		if m, ok := j.New.MemberByName(u.Dir.Name()); ok {
			s.newVotes[i] = m.Votes
		}
	}
	return s
}

// Select implements Selector: greedily accumulate randomly ordered,
// witness-last candidates until the old-side AND new-side thresholds
// for kind are both met.
func (s *JointSelector) Select(kind Kind, exclude Set, dst []int) ([]int, error) {
	order := s.base
	needOld, needNew := s.j.Old.need(kind), s.j.New.need(kind)
	gotOld, gotNew := 0, 0
	dst = dst[:0]
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := 0; p < order.n && (gotOld < needOld || gotNew < needNew); p++ {
		i := order.at(p, s.rng)
		ov, nv := s.oldVotes[i], s.newVotes[i]
		// Skip members that advance neither unmet threshold.
		if exclude.Has(i) || (gotOld >= needOld || ov == 0) && (gotNew >= needNew || nv == 0) {
			continue
		}
		dst = append(dst, i)
		gotOld += ov
		gotNew += nv
	}
	if gotOld >= needOld && gotNew >= needNew {
		return dst, nil
	}
	return nil, fmt.Errorf("%w: joint needs %d old + %d new votes, found %d + %d",
		ErrNoQuorum, needOld, needNew, gotOld, gotNew)
}

// MemberByName finds a member in a config. Reconfiguration uses it to
// line up the same representative across epochs.
func (c Config) MemberByName(name string) (Member, bool) {
	for _, m := range c.Members {
		if m.Dir.Name() == name {
			return m, true
		}
	}
	return Member{}, false
}

// ErrNotMember reports a representative name absent from a config.
var ErrNotMember = errors.New("quorum: not a member")
