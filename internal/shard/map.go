// Package shard partitions the ordered keyspace across several replica
// suites and routes directory operations to the owning suite.
//
// A Map is a static list of split points dividing the keyspace into
// contiguous ranges; shard i serves [Lo(i), Hi(i)), with Lo(0) = LOW and
// Hi(n-1) = HIGH. A Router holds one core.Suite per range and implements
// the full directory API on top: point operations go to the owning
// shard, ordered traversals are stitched from per-shard results (the
// ranges are disjoint and ordered, so concatenation in shard order is
// the k-way merge), and multi-key transactions span shards by binding
// one core.Tx per touched suite to a single two-phase-commit
// transaction.
//
// Split points are fixed at construction; online splits and moves are
// deferred to the reconfiguration work (see DESIGN.md section 12).
package shard

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repdir/internal/keyspace"
)

// Map is a static partition of the keyspace into len(splits)+1
// contiguous ranges. The zero Map is not valid; use NewMap. A Map with
// no splits describes a single shard owning the whole keyspace.
type Map struct {
	splits []keyspace.Key
}

// NewMap builds a shard map from split points, which must be non-empty
// and strictly ascending. Each split key is the inclusive lower bound of
// the shard to its right: a key equal to splits[i] is owned by shard
// i+1.
func NewMap(splits ...string) (*Map, error) {
	ks := make([]keyspace.Key, len(splits))
	for i, s := range splits {
		if s == "" {
			return nil, errors.New("shard: empty split point")
		}
		ks[i] = keyspace.New(s)
		if i > 0 && !ks[i-1].Less(ks[i]) {
			return nil, fmt.Errorf("shard: split points not strictly ascending: %q then %q",
				splits[i-1], s)
		}
	}
	return &Map{splits: ks}, nil
}

// Shards returns how many ranges the map describes.
func (m *Map) Shards() int { return len(m.splits) + 1 }

// Owner returns the index of the shard whose range contains k. The
// sentinels map to the edge shards: LOW to shard 0, HIGH to the last.
func (m *Map) Owner(k keyspace.Key) int {
	return sort.Search(len(m.splits), func(i int) bool { return k.Less(m.splits[i]) })
}

// Lo returns shard i's inclusive lower bound: LOW for shard 0, the
// preceding split point otherwise.
func (m *Map) Lo(i int) keyspace.Key {
	if i == 0 {
		return keyspace.Low()
	}
	return m.splits[i-1]
}

// Hi returns shard i's exclusive upper bound: HIGH for the last shard,
// its split point otherwise.
func (m *Map) Hi(i int) keyspace.Key {
	if i == len(m.splits) {
		return keyspace.High()
	}
	return m.splits[i]
}

// String renders the ranges for logs and errors.
func (m *Map) String() string {
	var b strings.Builder
	for i := 0; i < m.Shards(); i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "[%d: %s..%s)", i, m.Lo(i), m.Hi(i))
	}
	return b.String()
}
