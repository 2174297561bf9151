package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestEquivalenceTable pins down the boundary placements the router's
// stitching must get exactly right: splits on stored keys, splits
// between keys, splits below/above every key, and runs of empty shards
// the neighbor fallthrough has to cross.
func TestEquivalenceTable(t *testing.T) {
	cases := []struct {
		name   string
		splits []string
		keys   []string
		del    []string
		probes []string
	}{
		{
			name:   "split-on-stored-key",
			splits: []string{"c"},
			keys:   []string{"a", "b", "c", "d", "e"},
			probes: []string{"a", "b", "c", "d", "e", "b5", "c5", "z", "0"},
		},
		{
			name:   "split-between-keys",
			splits: []string{"bm"},
			keys:   []string{"a", "b", "c", "d"},
			probes: []string{"a", "b", "bm", "c", "d", "0", "z"},
		},
		{
			name:   "split-below-all-keys",
			splits: []string{"0"},
			keys:   []string{"m", "n", "p"},
			probes: []string{"0", "m", "n", "p", "a", "z"},
		},
		{
			name:   "split-above-all-keys",
			splits: []string{"z"},
			keys:   []string{"m", "n", "p"},
			probes: []string{"m", "n", "p", "z", "a", "zz"},
		},
		{
			name:   "empty-shard-runs",
			splits: []string{"f", "g", "h", "t"},
			keys:   []string{"a", "e", "x"},
			probes: []string{"a", "e", "f", "g", "h", "t", "x", "b", "w", "z"},
		},
		{
			name:   "deletes-leave-ghosts-at-splits",
			splits: []string{"c", "f"},
			keys:   []string{"a", "b", "c", "d", "e", "f", "g"},
			del:    []string{"c", "f", "a"},
			probes: []string{"a", "b", "c", "d", "e", "f", "g", "0", "z"},
		},
		{
			name:   "everything-deleted",
			splits: []string{"c"},
			keys:   []string{"a", "b", "d"},
			del:    []string{"a", "b", "d"},
			probes: []string{"a", "b", "c", "d", "z"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, tc.splits, 1)
			for _, k := range tc.keys {
				p.insert(t, k, "v-"+k)
			}
			for _, k := range tc.del {
				p.delete(t, k)
			}
			probes := append(tc.probes, tc.splits...)
			checkOrderedOps(t, p, probes)
		})
	}
}

// TestEquivalenceRandom drives randomized keysets, split placements, and
// operation mixes through both sides. Any divergence prints the seed for
// replay.
func TestEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))

			// A small universe forces key/split collisions to happen often.
			universe := make([]string, 18)
			for i := range universe {
				universe[i] = fmt.Sprintf("k%02d", i)
			}
			nsplits := 1 + rng.Intn(4)
			splitSet := map[string]bool{}
			for len(splitSet) < nsplits {
				s := universe[rng.Intn(len(universe))]
				if rng.Intn(2) == 0 {
					s += "x" // sometimes fall between keys instead of on one
				}
				splitSet[s] = true
			}
			var splits []string
			for s := range splitSet {
				splits = append(splits, s)
			}
			sort.Strings(splits)

			p := newPair(t, splits, seed)
			live := map[string]bool{}
			for op := 0; op < 60; op++ {
				k := universe[rng.Intn(len(universe))]
				switch {
				case !live[k]:
					p.insert(t, k, fmt.Sprintf("v%d", op))
					live[k] = true
				case rng.Intn(2) == 0:
					p.update(t, k, fmt.Sprintf("v%d", op))
				default:
					p.delete(t, k)
					delete(live, k)
				}
			}
			probes := append(append([]string{}, universe...), splits...)
			checkOrderedOps(t, p, probes)
		})
	}
}
