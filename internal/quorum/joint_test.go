package quorum

import (
	"math/rand"
	"testing"
)

// jointPair builds a random valid (old, new) configuration pair over a
// shared directory pool: members overlap partially, votes differ per
// side, and some new-side members are witnesses.
func jointPair(rng *rand.Rand) (Joint, bool) {
	pool := dirs(6)
	pick := func() Config {
		var ms []Member
		for _, d := range pool {
			if rng.Intn(3) == 0 {
				continue
			}
			ms = append(ms, Member{Dir: d, Votes: 1 + rng.Intn(3), Witness: rng.Intn(4) == 0})
		}
		total := votes(ms)
		if total == 0 {
			return Config{}
		}
		r := 1 + rng.Intn(total)
		return Config{Members: ms, R: r, W: total + 1 - r}
	}
	j := Joint{Old: pick(), New: pick()}
	return j, j.Validate() == nil
}

// subsets enumerates every member subset of cfg whose votes meet the
// given threshold — i.e. every possible quorum of that kind, minimal or
// not.
func subsets(cfg Config, threshold int) [][]Member {
	var out [][]Member
	n := len(cfg.Members)
	for mask := 1; mask < 1<<n; mask++ {
		var sel []Member
		tot := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sel = append(sel, cfg.Members[i])
				tot += cfg.Members[i].Votes
			}
		}
		if tot >= threshold {
			out = append(out, sel)
		}
	}
	return out
}

func intersects(a, b []Member) bool {
	names := make(map[string]bool, len(a))
	for _, m := range a {
		names[m.Dir.Name()] = true
	}
	for _, m := range b {
		if names[m.Dir.Name()] {
			return true
		}
	}
	return false
}

// TestJointQuorumIntersection is the handoff-safety property: every
// joint (epoch e+1) read quorum the selector can produce intersects
// every possible write quorum of epoch e, and every joint write quorum
// intersects every possible read quorum of the target epoch e+2. These
// two intersections are what let the transition neither miss old writes
// nor strand new ones.
func TestJointQuorumIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tried := 0
	for tried < 60 {
		j, ok := jointPair(rng)
		if !ok {
			continue
		}
		tried++
		sel := NewJointSelector(j, rng.Int63())
		oldWrites := subsets(j.Old, j.Old.W)
		newReads := subsets(j.New, j.New.R)
		for round := 0; round < 20; round++ {
			jr, err := pick(j.Union(), sel, Read)
			if err != nil {
				t.Fatalf("joint read select: %v", err)
			}
			for _, ow := range oldWrites {
				if !intersects(jr, ow) {
					t.Fatalf("joint read quorum %v misses old write quorum %v\nold=%+v",
						names(jr), names(ow), j.Old)
				}
			}
			jw, err := pick(j.Union(), sel, Write)
			if err != nil {
				t.Fatalf("joint write select: %v", err)
			}
			for _, nr := range newReads {
				if !intersects(jw, nr) {
					t.Fatalf("joint write quorum %v misses new read quorum %v\nnew=%+v",
						names(jw), names(nr), j.New)
				}
			}
		}
	}
}

// TestJointSelectorThresholds checks the selector's own contract
// directly: each side's votes in a selection meet that side's threshold,
// counted at that side's weights.
func TestJointSelectorThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tried := 0
	for tried < 40 {
		j, ok := jointPair(rng)
		if !ok {
			continue
		}
		tried++
		sel := NewJointSelector(j, rng.Int63())
		for _, kind := range []Kind{Read, Write} {
			got, err := pick(j.Union(), sel, kind)
			if err != nil {
				t.Fatalf("select %v: %v", kind, err)
			}
			oldGot, newGot := 0, 0
			for _, m := range got {
				if om, ok := j.Old.MemberByName(m.Dir.Name()); ok {
					oldGot += om.Votes
				}
				if nm, ok := j.New.MemberByName(m.Dir.Name()); ok {
					newGot += nm.Votes
				}
			}
			if oldGot < j.Old.need(kind) || newGot < j.New.need(kind) {
				t.Fatalf("%v quorum has %d old / %d new votes, need %d / %d",
					kind, oldGot, newGot, j.Old.need(kind), j.New.need(kind))
			}
		}
	}
}

// TestJointSelectorExcludes checks that excluded members are never
// selected and that exclusion can make a joint quorum impossible.
func TestJointSelectorExcludes(t *testing.T) {
	ds := dirs(4)
	old := NewUniform(ds[:3], 2, 2)
	niu := Config{
		Members: []Member{
			{Dir: ds[0], Votes: 1}, {Dir: ds[1], Votes: 1},
			{Dir: ds[2], Votes: 1}, {Dir: ds[3], Votes: 1},
		},
		R: 2, W: 3,
	}
	j := Joint{Old: old, New: niu}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	sel := NewJointSelector(j, 1)
	got, err := pick(j.Union(), sel, Write, "rep0")
	if err != nil {
		t.Fatalf("select with one exclusion: %v", err)
	}
	for _, m := range got {
		if m.Dir.Name() == "rep0" {
			t.Fatal("excluded member selected")
		}
	}
	// Excluding two old members leaves only 1 old vote < W_old=2.
	if _, err := pick(j.Union(), sel, Write, "rep0", "rep1"); err == nil {
		t.Fatal("want ErrNoQuorum when the old side cannot meet W")
	}
}

// TestJointUnionNewSideWins checks reweighting/witness handoff
// semantics: shared members carry the new side's votes and witness flag
// in the union.
func TestJointUnionNewSideWins(t *testing.T) {
	ds := dirs(3)
	old := Config{
		Members: []Member{{Dir: ds[0], Votes: 2}, {Dir: ds[1], Votes: 1}},
		R:       2, W: 2,
	}
	niu := Config{
		Members: []Member{{Dir: ds[0], Votes: 1, Witness: true}, {Dir: ds[2], Votes: 1}},
		R:       1, W: 2,
	}
	u := Joint{Old: old, New: niu}.Union()
	if len(u) != 3 {
		t.Fatalf("union has %d members, want 3", len(u))
	}
	if u[0].Dir.Name() != "rep0" || u[0].Votes != 1 || !u[0].Witness {
		t.Fatalf("shared member not rebound to new side: %+v", u[0])
	}
}
