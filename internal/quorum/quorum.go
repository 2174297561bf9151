// Package quorum implements weighted voting quorum configuration and
// collection for directory suites (paper, section 2, following
// [Gifford 79]).
//
// A directory suite assigns each representative some number of votes and
// fixes a read quorum size R and write quorum size W with R + W greater
// than the total votes, so every read quorum intersects every write
// quorum. This package validates configurations, computes quorum
// feasibility, and supplies the quorum selection policies used in the
// paper: uniformly random members (the section 4 simulations), a sticky
// preference order (the section 5 observation that rarely-changing write
// quorums make coalescing cheap), and the locality-aware policy of
// Figure 16.
package quorum

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repdir/internal/rep"
)

// ErrNoQuorum reports that the requested quorum cannot be assembled from
// the available (non-excluded) members.
var ErrNoQuorum = errors.New("quorum: not enough available votes")

// Member is one representative in a suite together with its vote weight.
// A witness member votes and stores entry/gap versions like any other,
// but stores no values (the paper's zero-vote "hint" idea inverted:
// votes without storage). Witnesses are cheap tie-breakers; selectors
// order them last so they only enter a quorum when store members alone
// cannot reach the threshold.
type Member struct {
	Dir   rep.Directory
	Votes int
	// Witness marks a zero-data member: its replies carry versions but
	// never values, so the suite must chase winning values to a store
	// member (core.Tx does this transparently).
	Witness bool
}

// Config describes a directory suite: its members, vote assignment, and
// quorum sizes. The paper's x-y-z notation (x representatives, read
// quorum y, write quorum z, one vote each) maps to len(Members)=x, R=y,
// W=z with all Votes=1.
type Config struct {
	// Epoch numbers the configuration. Zero means "unversioned" (a
	// statically configured suite that has never been reconfigured);
	// reconfiguration bumps it and fences stale-epoch clients at the
	// representatives (rep.ErrStaleEpoch).
	Epoch   uint64
	Members []Member
	// R is the read quorum size in votes.
	R int
	// W is the write quorum size in votes.
	W int
}

// NewUniform builds the paper's x-y-z configuration: one vote per
// representative.
func NewUniform(dirs []rep.Directory, r, w int) Config {
	members := make([]Member, len(dirs))
	for i, d := range dirs {
		members[i] = Member{Dir: d, Votes: 1}
	}
	return Config{Members: members, R: r, W: w}
}

// TotalVotes sums the vote assignment.
func (c Config) TotalVotes() int {
	total := 0
	for _, m := range c.Members {
		total += m.Votes
	}
	return total
}

// WitnessVotes sums the votes held by witness members.
func (c Config) WitnessVotes() int {
	total := 0
	for _, m := range c.Members {
		if m.Witness {
			total += m.Votes
		}
	}
	return total
}

// WritesIntersect reports whether every two write quorums share a member
// (2W > total votes). Validate does not ask for it: R + W > total is what
// reads need. A write that builds on a version its suite remembers, and
// checks that version at its own write quorum instead of reading it
// (core.Tx.write), needs it too.
func (c Config) WritesIntersect() bool { return 2*c.W > c.TotalVotes() }

// Validate checks the weighted-voting constraints: positive quorums, at
// least one vote somewhere, quorums collectible from the total, and the
// intersection property R + W > total votes.
func (c Config) Validate() error {
	if len(c.Members) == 0 {
		return errors.New("quorum: no members")
	}
	if len(c.Members) > MaxMembers {
		return fmt.Errorf("quorum: %d members, at most %d", len(c.Members), MaxMembers)
	}
	for i, m := range c.Members {
		if m.Dir == nil {
			return fmt.Errorf("quorum: member %d has no directory", i)
		}
		if m.Votes < 0 {
			return fmt.Errorf("quorum: member %d has negative votes", i)
		}
	}
	total := c.TotalVotes()
	if total == 0 {
		return errors.New("quorum: all members have zero votes")
	}
	if c.R < 1 || c.W < 1 {
		return fmt.Errorf("quorum: R=%d and W=%d must be at least 1", c.R, c.W)
	}
	if c.R > total || c.W > total {
		return fmt.Errorf("quorum: R=%d, W=%d exceed total votes %d", c.R, c.W, total)
	}
	if c.R+c.W <= total {
		return fmt.Errorf(
			"quorum: R+W=%d must exceed total votes %d so read and write quorums intersect",
			c.R+c.W, total)
	}
	// Witnesses store no values, so a write quorum must always contain
	// at least one store member or an acknowledged value would exist
	// nowhere: W strictly greater than the total witness votes
	// guarantees it. Reads are safe regardless — a winning version seen
	// only on witnesses is value-chased to a store member, and the write
	// quorum that installed it contained one.
	if wv := c.WitnessVotes(); c.W <= wv {
		return fmt.Errorf(
			"quorum: W=%d must exceed witness votes %d so every write quorum stores the value somewhere",
			c.W, wv)
	}
	return nil
}

// Kind distinguishes read from write quorums.
type Kind int

const (
	// Read selects a quorum of at least R votes.
	Read Kind = iota + 1
	// Write selects a quorum of at least W votes.
	Write
)

// MaxMembers is the most members a configuration may have: a Set has
// one bit for each.
const MaxMembers = 64

// Set is a set of members of one configuration, each named by its index
// in Config.Members. Indexes are stable for the life of a Config value —
// nothing reorders Members, and reconfiguration builds a new Config —
// and mean nothing against another configuration.
type Set uint64

// Has reports whether member i is in the set.
func (s Set) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Add puts member i in the set.
func (s *Set) Add(i int) { *s |= 1 << uint(i) }

// Selector assembles quorums of the configuration it was built for.
// Select appends to dst[:0] the indexes in Config.Members of a quorum
// of the given kind that avoids the members in exclude (e.g. ones that
// just failed), and returns ErrNoQuorum when the remaining members
// cannot reach the vote threshold. Given a dst with room for every
// member it allocates nothing.
type Selector interface {
	Select(kind Kind, exclude Set, dst []int) ([]int, error)
}

// need returns the vote threshold for kind.
func (c Config) need(kind Kind) int {
	if kind == Read {
		return c.R
	}
	return c.W
}

// take appends to dst[:0] the members in places 0, 1, … of an order of
// n members — skipping those excluded and those without a vote — until
// their votes reach kind's threshold. at gives the member in a place.
func (c Config) take(kind Kind, exclude Set, dst []int, n int, at func(place int) int) ([]int, error) {
	need, votes := c.need(kind), 0
	dst = dst[:0]
	for p := 0; p < n; p++ {
		i := at(p)
		if exclude.Has(i) || c.Members[i].Votes == 0 {
			continue
		}
		dst = append(dst, i)
		if votes += c.Members[i].Votes; votes >= need {
			return dst, nil
		}
	}
	return nil, fmt.Errorf("%w: need %d, found %d", ErrNoQuorum, need, votes)
}

// witnessLast lists the member indexes, the store members before the
// witnesses and each class in the given order: witnesses are
// tie-breakers, entering a quorum only when the store members before
// them cannot reach the vote threshold alone. It returns the list and
// the number of store members.
func witnessLast(members []Member) (order []uint8, stores int) {
	for _, witness := range []bool{false, true} {
		for i, m := range members {
			if m.Witness == witness {
				order = append(order, uint8(i))
			}
		}
		if !witness {
			stores = len(order)
		}
	}
	return order, stores
}

// shuffle is a uniformly random order of the members, store members
// before witnesses, drawn one member at a time as a selection consumes
// it (a partial Fisher-Yates shuffle of each class): a quorum of two
// costs two draws however many members there are.
type shuffle struct {
	order  [MaxMembers]uint8
	stores int // order[:stores] are the store members
	n      int
}

func newShuffle(members []Member) shuffle {
	order, stores := witnessLast(members)
	s := shuffle{stores: stores, n: len(order)}
	copy(s.order[:], order)
	return s
}

// at returns the member in place i of the order, drawing it first; the
// places before i have been drawn. Callers hold the lock on rng.
func (s *shuffle) at(i int, rng *rand.Rand) int {
	end := s.n
	if i < s.stores {
		end = s.stores
	}
	if end-i > 1 {
		j := i + rng.Intn(end-i)
		s.order[i], s.order[j] = s.order[j], s.order[i]
	}
	return int(s.order[i])
}

// RandomSelector picks quorum members uniformly at random, the policy
// used by the paper's section 4 simulations ("the members of quorums ...
// were selected randomly from a uniform distribution"). Safe for
// concurrent use.
type RandomSelector struct {
	cfg  Config
	base shuffle // the undrawn order every selection starts from

	mu  sync.Mutex
	rng *rand.Rand
}

var _ Selector = (*RandomSelector)(nil)

// NewRandomSelector builds a random selector with a deterministic seed.
func NewRandomSelector(cfg Config, seed int64) *RandomSelector {
	return &RandomSelector{cfg: cfg, base: newShuffle(cfg.Members), rng: rand.New(rand.NewSource(seed))}
}

// Select implements Selector. The lock is held for the draws alone: the
// order they are made in is a copy on the caller's stack.
func (s *RandomSelector) Select(kind Kind, exclude Set, dst []int) ([]int, error) {
	order := s.base
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.take(kind, exclude, dst, order.n, func(p int) int { return order.at(p, s.rng) })
}

// StickySelector always prefers members in a fixed order, so quorum
// membership changes only when preferred members are excluded. Section 5
// of the paper observes that with rarely-changing write quorums,
// coalescing during deletions does almost no extra work.
type StickySelector struct {
	cfg   Config
	order []uint8 // configuration order, witnesses last
}

var _ Selector = (*StickySelector)(nil)

// NewStickySelector builds a selector preferring members in config order.
func NewStickySelector(cfg Config) *StickySelector {
	order, _ := witnessLast(cfg.Members)
	return &StickySelector{cfg: cfg, order: order}
}

// Select implements Selector.
func (s *StickySelector) Select(kind Kind, exclude Set, dst []int) ([]int, error) {
	return s.cfg.take(kind, exclude, dst, len(s.order), func(p int) int { return int(s.order[p]) })
}

// LocalitySelector implements the Figure 16 policy: reads are served
// entirely by the client's local representatives; writes use the local
// representatives plus remote ones, spreading the remote picks
// round-robin so "the non-local write ... is evenly distributed among the
// remote representatives".
type LocalitySelector struct {
	cfg Config
	// order lists the locals, then the remotes, witnesses last; the
	// remote store members are order[remote[0]:remote[1]].
	order  []uint8
	remote [2]int

	next atomic.Uint64 // round-robin cursor over remote members
}

var _ Selector = (*LocalitySelector)(nil)

// NewLocalitySelector builds a locality selector. localNames are the
// representatives local to this client.
func NewLocalitySelector(cfg Config, localNames []string) *LocalitySelector {
	s := &LocalitySelector{cfg: cfg}
	for _, witness := range []bool{false, true} {
		for _, local := range []bool{true, false} {
			from := len(s.order)
			for i, m := range cfg.Members {
				if m.Witness == witness && slices.Contains(localNames, m.Dir.Name()) == local {
					s.order = append(s.order, uint8(i))
				}
			}
			if !witness && !local {
				s.remote = [2]int{from, len(s.order)}
			}
		}
	}
	return s
}

// Select implements Selector. The remote store members are taken from
// the cursor round, so successive writes hit different remotes.
func (s *LocalitySelector) Select(kind Kind, exclude Set, dst []int) ([]int, error) {
	k := s.next.Load()
	if kind == Write {
		k = s.next.Add(1) - 1
	}
	lo, hi := s.remote[0], s.remote[1]
	return s.cfg.take(kind, exclude, dst, len(s.order), func(p int) int {
		if lo <= p && p < hi {
			p = lo + int((uint64(p-lo)+k)%uint64(hi-lo))
		}
		return int(s.order[p])
	})
}
