package quorum

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repdir/internal/rep"
)

func dirs(n int) []rep.Directory {
	out := make([]rep.Directory, n)
	for i := range out {
		out[i] = rep.New(fmt.Sprintf("rep%d", i))
	}
	return out
}

// pick has sel select a quorum of members, the member list of the
// configuration it was built for, and returns the members chosen;
// exclude names the members to avoid.
func pick(members []Member, sel Selector, kind Kind, exclude ...string) ([]Member, error) {
	var set Set
	for i, m := range members {
		for _, name := range exclude {
			if m.Dir.Name() == name {
				set.Add(i)
			}
		}
	}
	idx, err := sel.Select(kind, set, make([]int, 0, len(members)))
	var out []Member
	for _, i := range idx {
		out = append(out, members[i])
	}
	return out, err
}

func votes(members []Member) int {
	total := 0
	for _, m := range members {
		total += m.Votes
	}
	return total
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"3-2-2", NewUniform(dirs(3), 2, 2), true},
		{"3-1-3", NewUniform(dirs(3), 1, 3), true},
		{"3-3-1", NewUniform(dirs(3), 3, 1), true},
		{"3-1-1 no intersection", NewUniform(dirs(3), 1, 1), false},
		{"3-2-1 no intersection", NewUniform(dirs(3), 2, 1), false},
		{"zero R", NewUniform(dirs(3), 0, 3), false},
		{"R too big", NewUniform(dirs(3), 4, 3), false},
		{"empty", Config{R: 1, W: 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestValidateWeighted(t *testing.T) {
	ds := dirs(3)
	cfg := Config{
		Members: []Member{{Dir: ds[0], Votes: 2}, {Dir: ds[1], Votes: 1}, {Dir: ds[2], Votes: 1}},
		R:       2, W: 3,
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("weighted 2+1+1 R=2 W=3: %v", err)
	}
	cfg.W = 2 // 2+2 = 4 = total: no intersection
	if err := cfg.Validate(); err == nil {
		t.Error("R+W == total must be rejected")
	}
	zero := Config{Members: []Member{{Dir: ds[0], Votes: 0}}, R: 1, W: 1}
	if err := zero.Validate(); err == nil {
		t.Error("all-zero votes must be rejected")
	}
	neg := Config{Members: []Member{{Dir: ds[0], Votes: -1}}, R: 1, W: 1}
	if err := neg.Validate(); err == nil {
		t.Error("negative votes must be rejected")
	}
	nilDir := Config{Members: []Member{{Votes: 1}}, R: 1, W: 1}
	if err := nilDir.Validate(); err == nil {
		t.Error("nil directory must be rejected")
	}
}

// TestWritesIntersect: two write quorums share a member exactly when 2W
// exceeds the total votes, witnesses' votes counted like any others.
func TestWritesIntersect(t *testing.T) {
	ds := dirs(3)
	for _, tt := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"3-2-2", NewUniform(dirs(3), 2, 2), true},
		{"4-3-2", NewUniform(dirs(4), 3, 2), false},
		{"5-3-3", NewUniform(dirs(5), 3, 3), true},
		{"weighted 2+1+1 R=2 W=3", Config{Members: []Member{{Dir: ds[0], Votes: 2}, {Dir: ds[1], Votes: 1}, {Dir: ds[2], Votes: 1}}, R: 2, W: 3}, true},
		{"weighted 2+1+1 R=3 W=2", Config{Members: []Member{{Dir: ds[0], Votes: 2}, {Dir: ds[1], Votes: 1}, {Dir: ds[2], Votes: 1}}, R: 3, W: 2}, false},
		{"witness 1+1+1w R=2 W=2", Config{Members: []Member{{Dir: ds[0], Votes: 1}, {Dir: ds[1], Votes: 1}, {Dir: ds[2], Votes: 1, Witness: true}}, R: 2, W: 2}, true},
	} {
		if err := tt.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if got := tt.cfg.WritesIntersect(); got != tt.want {
			t.Errorf("%s: WritesIntersect = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestRandomSelectorMeetsThreshold(t *testing.T) {
	cfg := NewUniform(dirs(5), 3, 3)
	sel := NewRandomSelector(cfg, 42)
	for i := 0; i < 100; i++ {
		for _, kind := range []Kind{Read, Write} {
			got, err := pick(cfg.Members, sel, kind)
			if err != nil {
				t.Fatal(err)
			}
			if votes(got) < 3 {
				t.Fatalf("quorum has %d votes, need 3", votes(got))
			}
			seen := map[string]bool{}
			for _, m := range got {
				if seen[m.Dir.Name()] {
					t.Fatal("duplicate member in quorum")
				}
				seen[m.Dir.Name()] = true
			}
		}
	}
}

func TestRandomSelectorVariesMembership(t *testing.T) {
	cfg := NewUniform(dirs(5), 2, 2)
	sel := NewRandomSelector(cfg, 7)
	distinct := map[string]bool{}
	for i := 0; i < 200; i++ {
		got, err := pick(cfg.Members, sel, Read)
		if err != nil {
			t.Fatal(err)
		}
		key := ""
		for _, m := range got {
			key += m.Dir.Name() + ","
		}
		distinct[key] = true
	}
	if len(distinct) < 5 {
		t.Errorf("random selector produced only %d distinct quorums", len(distinct))
	}
}

func TestRandomSelectorHonorsExclusions(t *testing.T) {
	cfg := NewUniform(dirs(3), 2, 2)
	sel := NewRandomSelector(cfg, 9)
	for i := 0; i < 50; i++ {
		got, err := pick(cfg.Members, sel, Write, "rep0")
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range got {
			if m.Dir.Name() == "rep0" {
				t.Fatal("excluded member selected")
			}
		}
	}
	// Excluding two of three makes quorum impossible.
	_, err := pick(cfg.Members, sel, Write, "rep0", "rep1")
	if !errors.Is(err, ErrNoQuorum) {
		t.Errorf("impossible quorum = %v, want ErrNoQuorum", err)
	}
}

func TestStickySelectorPrefersConfigOrder(t *testing.T) {
	cfg := NewUniform(dirs(4), 2, 2)
	sel := NewStickySelector(cfg)
	got, err := pick(cfg.Members, sel, Write)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Dir.Name() != "rep0" || got[1].Dir.Name() != "rep1" {
		t.Errorf("sticky selection = %v", names(got))
	}
	// With rep0 excluded, shifts to the next members.
	got, err = pick(cfg.Members, sel, Write, "rep0")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Dir.Name() != "rep1" || got[1].Dir.Name() != "rep2" {
		t.Errorf("sticky selection under exclusion = %v", names(got))
	}
}

func TestLocalitySelectorReadsLocalWritesSpread(t *testing.T) {
	cfg := NewUniform(dirs(4), 2, 3) // rep0,rep1 local; rep2,rep3 remote
	sel := NewLocalitySelector(cfg, []string{"rep0", "rep1"})

	for i := 0; i < 10; i++ {
		got, err := pick(cfg.Members, sel, Read)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Dir.Name() != "rep0" || got[1].Dir.Name() != "rep1" {
			t.Fatalf("reads should use exactly the local members, got %v", names(got))
		}
	}
	remoteCounts := map[string]int{}
	for i := 0; i < 100; i++ {
		got, err := pick(cfg.Members, sel, Write)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("write quorum size %d, want 3", len(got))
		}
		if got[0].Dir.Name() != "rep0" || got[1].Dir.Name() != "rep1" {
			t.Fatalf("writes should start with locals, got %v", names(got))
		}
		remoteCounts[got[2].Dir.Name()]++
	}
	if remoteCounts["rep2"] != 50 || remoteCounts["rep3"] != 50 {
		t.Errorf("remote writes not evenly spread: %v", remoteCounts)
	}
}

func TestLocalitySelectorFallsBackWhenLocalDown(t *testing.T) {
	cfg := NewUniform(dirs(4), 2, 3)
	sel := NewLocalitySelector(cfg, []string{"rep0", "rep1"})
	got, err := pick(cfg.Members, sel, Read, "rep0")
	if err != nil {
		t.Fatal(err)
	}
	if votes(got) < 2 {
		t.Fatal("fallback quorum too small")
	}
	if got[0].Dir.Name() != "rep1" {
		t.Errorf("surviving local should still lead: %v", names(got))
	}
}

func TestZeroVoteMembersNeverSelected(t *testing.T) {
	ds := dirs(4)
	cfg := Config{
		Members: []Member{
			{Dir: ds[0], Votes: 1}, {Dir: ds[1], Votes: 1},
			{Dir: ds[2], Votes: 1}, {Dir: ds[3], Votes: 0}, // hint replica
		},
		R: 2, W: 2,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sel := NewRandomSelector(cfg, 3)
	for i := 0; i < 100; i++ {
		got, err := pick(cfg.Members, sel, Read)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range got {
			if m.Dir.Name() == "rep3" {
				t.Fatal("zero-vote hint replica joined a quorum")
			}
		}
	}
}

// Property: for any valid uniform configuration, any read quorum
// intersects any write quorum (the foundation of the whole algorithm).
func TestQuorumIntersectionProperty(t *testing.T) {
	f := func(nRaw, rRaw, wRaw uint8, seed int64) bool {
		n := int(nRaw%7) + 1
		r := int(rRaw)%n + 1
		w := n - r + 1 // smallest W with R+W > n
		cfg := NewUniform(dirs(n), r, w)
		if cfg.Validate() != nil {
			return true
		}
		sel := NewRandomSelector(cfg, seed)
		readQ, err1 := pick(cfg.Members, sel, Read)
		writeQ, err2 := pick(cfg.Members, sel, Write)
		if err1 != nil || err2 != nil {
			return false
		}
		for _, a := range readQ {
			for _, b := range writeQ {
				if a.Dir.Name() == b.Dir.Name() {
					return true
				}
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func names(ms []Member) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Dir.Name()
	}
	return out
}
