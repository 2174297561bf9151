package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repdir/internal/btree"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/version"
)

// The run's range-wise merge replaced the per-key search of Figure 12:
// probe every member for its neighbor of k, take the nearest candidate,
// ask the quorum with a lookup whether it is current, and go on from it
// if it is a ghost. That search is kept here, as the reference the merge
// is compared with.

// refNeighbor is the Figure 12 search for the real successor (or, with
// desc, predecessor) of x over members, one neighbor per probe.
func refNeighbor(ctx context.Context, tx *Tx, members []member, x keyspace.Key, desc bool) (neighbor, int, error) {
	end := keyspace.High()
	if desc {
		end = keyspace.Low()
	}
	if x.Equal(end) {
		return neighbor{key: x, ver: version.Lowest, maxGap: version.Lowest}, 0, nil
	}
	k, maxGap, steps := x, version.Lowest, 0
	for {
		steps++
		cand := end
		for _, m := range members {
			tx.joinReader(m.Dir)
			var nb rep.NeighborResult
			var err error
			if desc {
				nb, err = m.Dir.Predecessor(ctx, tx.txn.ID, k)
				cand = keyspace.Max(cand, nb.Key)
			} else {
				nb, err = m.Dir.Successor(ctx, tx.txn.ID, k)
				cand = keyspace.Min(cand, nb.Key)
			}
			if err != nil {
				return neighbor{}, 0, err
			}
			maxGap = version.Max(maxGap, nb.GapVersion)
		}
		if cand.IsSentinel() {
			return neighbor{key: cand, ver: version.Lowest, maxGap: maxGap}, steps, nil
		}
		cur, err := tx.suiteLookup(ctx, cand)
		if err != nil {
			return neighbor{}, 0, err
		}
		if cur.Found {
			return neighbor{key: cand, value: cur.Value, ver: cur.Version, maxGap: maxGap}, steps, nil
		}
		k = cand // a ghost; keep walking from it
	}
}

// refWalk is the scan built on refNeighbor, one search per entry.
func refWalk(ctx context.Context, tx *Tx, members []member, from, bound keyspace.Key, desc bool, limit int) ([]KV, error) {
	if !ahead(desc, bound, from) {
		return nil, nil
	}
	var out []KV
	for k := from; limit <= 0 || len(out) < limit; {
		nb, _, err := refNeighbor(ctx, tx, members, k, desc)
		if err != nil {
			return nil, err
		}
		if nb.key.IsSentinel() || !ahead(desc, bound, nb.key) {
			break
		}
		k = nb.key
		if !isSystemKey(k) {
			out = append(out, KV{Key: k.Raw(), Value: nb.value})
		}
	}
	return out, nil
}

// world is a set of representatives driven directly, one serial
// operation at a time with a random write quorum each, alongside the
// directory they should add up to. It produces every kind of replica
// state the algorithm allows: members missing newer entries, ghosts
// under newer gaps, stale values, witnesses that alone saw a write.
type world struct {
	t       *testing.T
	rng     *rand.Rand
	reps    []*rep.Rep
	cfg     quorum.Config
	truth   map[string]string
	version map[string]version.V
	txn     lock.TxnID
}

func newWorld(t *testing.T, rng *rand.Rand) *world {
	w := &world{t: t, rng: rng, truth: map[string]string{}, version: map[string]version.V{}}
	names, r, wq, witnesses := []string{"A", "B", "C"}, 2, 2, 0
	switch rng.Intn(3) {
	case 1:
		names, r, wq, witnesses = []string{"A", "B", "C", "W"}, 2, 3, 1
	case 2:
		names, r, wq = []string{"A", "B", "C", "D", "E"}, 3, 3
	}
	dirs := make([]rep.Directory, len(names))
	for i, n := range names {
		var opts []rep.Option
		if i >= len(names)-witnesses {
			opts = append(opts, rep.AsWitness())
		}
		w.reps = append(w.reps, rep.New(n, opts...))
		dirs[i] = transport.NewLocal(w.reps[i])
	}
	w.cfg = quorum.NewUniform(dirs, r, wq)
	for i := len(names) - witnesses; i < len(names); i++ {
		w.cfg.Members[i].Witness = true
	}
	if err := w.cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

// quorumOf draws a random set of members with at least need votes, in
// random order.
func (w *world) quorumOf(need int) []int {
	perm := w.rng.Perm(len(w.reps))
	return perm[:need+w.rng.Intn(len(perm)-need+1)]
}

// answerOf is what a member's entries say about key: its entry's
// version, or the version of the gap it lies in.
func answerOf(entries []btree.Entry, key keyspace.Key) (version.V, bool) {
	i := sort.Search(len(entries), func(j int) bool { return !entries[j].Key.Less(key) })
	if i < len(entries) && entries[i].Key.Equal(key) {
		return entries[i].Version, true
	}
	return entries[i-1].GapAfter, false
}

func (w *world) must(err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
}

// put inserts or updates key at a random write quorum, at one more than
// the highest version any member associates with it.
func (w *world) put(key, value string) {
	ctx := context.Background()
	k := keyspace.New(key)
	ver := version.Lowest
	for _, r := range w.reps {
		v, _ := answerOf(r.Dump(), k)
		ver = version.Max(ver, v)
	}
	ver = ver.Next()
	w.txn++
	for _, i := range w.quorumOf(w.cfg.W) {
		w.must(w.reps[i].Insert(ctx, w.txn, k, ver, value))
		w.must(w.reps[i].Commit(ctx, w.txn))
	}
	w.truth[key], w.version[key] = value, ver
}

// keys lists the directory's keys in order.
func (w *world) keys() []string {
	keys := make([]string, 0, len(w.truth))
	for k := range w.truth {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// remove is DirSuiteDelete (Figure 13) with perfect knowledge: the real
// neighbors come from the directory itself and the new gap version
// exceeds everything any member holds in the range.
func (w *world) remove(key string) {
	ctx := context.Background()
	keys := w.keys()
	i := sort.SearchStrings(keys, key)
	lo, hi := keyspace.Low(), keyspace.High()
	if i > 0 {
		lo = keyspace.New(keys[i-1])
	}
	if i+1 < len(keys) {
		hi = keyspace.New(keys[i+1])
	}
	ver := version.Lowest
	for _, r := range w.reps {
		entries := r.Dump()
		for j, e := range entries {
			if lo.Less(e.Key) && e.Key.Less(hi) {
				ver = version.Max(ver, e.Version)
			}
			if e.Key.Less(hi) && j+1 < len(entries) && lo.Less(entries[j+1].Key) {
				ver = version.Max(ver, e.GapAfter)
			}
		}
	}
	w.txn++
	for _, i := range w.quorumOf(w.cfg.W) {
		r := w.reps[i]
		for _, b := range []keyspace.Key{lo, hi} {
			if _, holds := answerOf(r.Dump(), b); !holds {
				w.must(r.Insert(ctx, w.txn, b, w.version[b.Raw()], w.truth[b.Raw()]))
			}
		}
		_, err := r.Coalesce(ctx, w.txn, lo, hi, ver.Next())
		w.must(err)
		w.must(r.Commit(ctx, w.txn))
	}
	delete(w.truth, key)
	delete(w.version, key)
}

// mergeKeys is the key space of the generated states: a few system keys
// below a dozen user keys.
var mergeKeys = []string{SysPrefix + "cfg", SysPrefix + "x", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}

// evolve applies n random operations.
func (w *world) evolve(n int) {
	for i := 0; i < n; i++ {
		key := mergeKeys[w.rng.Intn(len(mergeKeys))]
		if _, ok := w.truth[key]; ok && w.rng.Intn(3) > 0 {
			w.remove(key)
		} else {
			w.put(key, fmt.Sprintf("%s@%d", key, i))
		}
	}
}

// TestMergeMatchesPerKeyWalk compares the run with the algorithm it
// replaced, and both with the directory the replicas add up to, over
// thousands of generated replica states, random read quorums, both
// directions, every page size that makes frontiers unequal, and spans
// with edges at LOW, HIGH, on keys, between keys, empty and inverted.
func TestMergeMatchesPerKeyWalk(t *testing.T) {
	states := 2000
	if testing.Short() {
		states = 200
	}
	ctx := context.Background()
	ghosts, chased, multiRound := 0, 0, 0
	for seed := int64(1); seed <= int64(states); seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newWorld(t, rng)
		w.evolve(5 + rng.Intn(40))
		script := &scriptSelector{cfg: w.cfg}
		suite, err := NewSuite(w.cfg, WithSelector(script))
		if err != nil {
			t.Fatal(err)
		}
		point := func() keyspace.Key {
			switch rng.Intn(8) {
			case 0:
				return keyspace.Low()
			case 1:
				return keyspace.High()
			case 2:
				return keyspace.New(mergeKeys[rng.Intn(len(mergeKeys))] + "+")
			}
			return keyspace.New(mergeKeys[rng.Intn(len(mergeKeys))])
		}
		for probe := 0; probe < 6; probe++ {
			script.set(w.quorumOf(w.cfg.R), nil)
			desc := rng.Intn(2) == 0
			from, bound := point(), point()
			limit := rng.Intn(4) * rng.Intn(4) // 0 (no limit), 1, and up to 9
			page := 1 + rng.Intn(5)
			what := fmt.Sprintf("seed %d probe %d (desc %v, from %s to %s, limit %d, page %d, quorum %v)",
				seed, probe, desc, from, bound, limit, page, script.readIdx)
			err := suite.RunInTxn(ctx, func(tx *Tx) error {
				members, err := tx.readQuorum()
				if err != nil {
					return err
				}
				// The stream of current entries with what was crossed on the
				// way to each, to the end of the keyspace.
				end := keyspace.High()
				if desc {
					end = keyspace.Low()
				}
				if !from.Equal(end) {
					r := tx.newRun(members, from, desc)
					for k, steps := from, 0; !k.Equal(end); {
						want, wantSteps, err := refNeighbor(ctx, tx, members, k, desc)
						if err != nil {
							return err
						}
						got, err := r.next(ctx, page)
						if err != nil {
							return err
						}
						if got != want || r.steps-steps != wantSteps {
							t.Fatalf("%s: after %s the run found %+v in %d steps, the per-key walk %+v in %d", what, k, got, r.steps-steps, want, wantSteps)
						}
						if wantSteps > 1 {
							ghosts++
						}
						k, steps = got.key, r.steps
					}
					if r.rpcs > len(members) {
						multiRound++
					}
				}
				// The operations built on it.
				want, err := refWalk(ctx, tx, members, from, bound, desc, limit)
				if err != nil {
					return err
				}
				got, err := tx.collect(ctx, from, bound, desc, limit)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the walk collected %v, the per-key walk %v", what, got, want)
				}
				first, err := tx.collect(ctx, from, end, desc, 1)
				if err != nil {
					return err
				}
				wantFirst, err := refWalk(ctx, tx, members, from, end, desc, 1)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(first, wantFirst) {
					t.Fatalf("%s: the one-entry walk collected %v, the per-key walk %v", what, first, wantFirst)
				}
				if !desc {
					n, err := tx.CountSpan(ctx, from, bound)
					if err != nil {
						return err
					}
					unlimited, err := refWalk(ctx, tx, members, from, bound, false, 0)
					if err != nil {
						return err
					}
					if n != len(unlimited) {
						t.Fatalf("%s: counted %d, the per-key walk visits %d", what, n, len(unlimited))
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		// And against the directory itself: a full scan returns exactly its
		// user entries, values chased from wherever they are.
		script.set(w.quorumOf(w.cfg.R), nil)
		got, err := suite.Scan(ctx, "", 0)
		if err != nil {
			t.Fatalf("seed %d: scan: %v", seed, err)
		}
		var want []KV
		for _, k := range w.keys() {
			if !isSystemKey(keyspace.New(k)) {
				want = append(want, KV{Key: k, Value: w.truth[k]})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d quorum %v: scan = %v, the directory holds %v", seed, script.readIdx, got, want)
		}
		for _, m := range w.cfg.Members {
			if m.Witness {
				chased++
			}
		}
	}
	if ghosts == 0 || multiRound == 0 || chased == 0 {
		t.Errorf("coverage: %d searches skipped a ghost, %d runs took more than one round, %d states had a witness; want all three", ghosts, multiRound, chased)
	}
}

// refDeleteRead is the delete's read as it was before the neighborhood
// read (rep.MarkAround) replaced it: three calls to each reader, a batch
// of n neighbors each way and a lookup of x. It is kept as the reference
// the one call is compared with.
func refDeleteRead(ctx context.Context, tx *Tx, readers []member, x keyspace.Key, n int) (runs [2]*run, bounds [2]neighbor, cur rep.LookupResult, err error) {
	runs = [2]*run{tx.newRun(readers, x, false), tx.newRun(readers, x, true)}
	replies := make([]rep.LookupResult, len(readers))
	for i, m := range readers {
		for _, r := range runs {
			if r.probe(ctx, i, n); r.errs[i] != nil {
				return runs, bounds, cur, r.errs[i]
			}
		}
		if replies[i], err = m.Dir.Lookup(ctx, tx.txn.ID, x); err != nil {
			return runs, bounds, cur, err
		}
	}
	for b, r := range runs {
		r.rpcs += len(readers)
		if err = r.load(x); err != nil {
			return runs, bounds, cur, err
		}
		if bounds[b], err = r.next(ctx, n); err != nil {
			return runs, bounds, cur, err
		}
	}
	cur, err = tx.resolve(ctx, x, readers, replies)
	return runs, bounds, cur, err
}

// writeSpy notes the writes a member is sent.
type writeSpy struct {
	rep.Directory
	mu     sync.Mutex
	writes []string
}

func (d *writeSpy) Insert(ctx context.Context, id lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	d.mu.Lock()
	d.writes = append(d.writes, fmt.Sprintf("%s: insert %s v%d %q", d.Name(), key, ver, value))
	d.mu.Unlock()
	return d.Directory.Insert(ctx, id, key, ver, value)
}

func (d *writeSpy) Coalesce(ctx context.Context, id lock.TxnID, lo, hi keyspace.Key, ver version.V) (rep.CoalesceResult, error) {
	d.mu.Lock()
	d.writes = append(d.writes, fmt.Sprintf("%s: coalesce %s..%s v%d", d.Name(), lo, hi, ver))
	d.mu.Unlock()
	return d.Directory.Coalesce(ctx, id, lo, hi, ver)
}

func (d *writeSpy) take() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.writes
	d.writes = nil
	return out
}

// TestDeleteReadMatchesThreeCalls compares what a delete does on its one
// neighborhood read a member with what the three calls it replaced would
// have made it do — the bounds with what was crossed on the way to them,
// the version the coalesce is given, the copies of bounds sent to writers
// that lack them, the section 4 statistics — over the generated replica
// states, random write quorums and fanouts, for keys present and absent.
func TestDeleteReadMatchesThreeCalls(t *testing.T) {
	states := 2000
	if testing.Short() {
		states = 200
	}
	ctx := context.Background()
	missing, ghosts, staleUnderGap, witnessHeld, copied := 0, 0, 0, 0, 0
	for seed := int64(1); seed <= int64(states); seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newWorld(t, rng)
		w.evolve(5 + rng.Intn(40))
		cfg := w.cfg
		cfg.Members = append([]quorum.Member(nil), w.cfg.Members...)
		spies := make([]*writeSpy, len(cfg.Members))
		for i := range cfg.Members {
			spies[i] = &writeSpy{Directory: cfg.Members[i].Dir}
			cfg.Members[i].Dir = spies[i]
		}
		script := &scriptSelector{cfg: cfg}
		rec := &recorder{}
		fanout := 1 + rng.Intn(3)
		suite, err := NewSuite(cfg, WithSelector(script), WithMetrics(rec), WithNeighborFanout(fanout))
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 3; probe++ {
			// A user key — system keys are only ever neighbors — and after
			// the first probe one the directory holds, if it holds any.
			key := mergeKeys[2+rng.Intn(len(mergeKeys)-2)]
			var held []string
			for _, k := range w.keys() {
				if !isSystemKey(keyspace.New(k)) {
					held = append(held, k)
				}
			}
			if probe > 0 && len(held) > 0 {
				key = held[rng.Intn(len(held))]
			}
			x := keyspace.New(key)
			quorumIdx := w.quorumOf(w.cfg.W)
			script.set(quorumIdx, quorumIdx)
			what := fmt.Sprintf("seed %d probe %d (delete %s at %v, fanout %d)", seed, probe, key, quorumIdx, fanout)

			// The reference, in a transaction that only reads.
			var want []string
			var wantSteps [2]int
			var wantRPCs int
			var found bool
			err := suite.RunInTxn(ctx, func(tx *Tx) error {
				readers, err := tx.writeQuorum()
				if err != nil {
					return err
				}
				runs, bounds, cur, err := refDeleteRead(ctx, tx, readers, x, fanout)
				if err != nil {
					return err
				}
				found = cur.Found
				if !found {
					return nil
				}
				succ, pred := bounds[0], bounds[1]
				ver := version.Max(version.Max(succ.maxGap, pred.maxGap), cur.Version).Next()
				for i, m := range readers {
					for b, nb := range bounds {
						if !runs[b].holds(i) {
							want = append(want, fmt.Sprintf("%s: insert %s v%d %q", m.Dir.Name(), nb.key, nb.ver, nb.value))
						}
					}
					want = append(want, fmt.Sprintf("%s: coalesce %s..%s v%d", m.Dir.Name(), pred.key, succ.key, ver))
				}
				wantSteps = [2]int{runs[0].steps, runs[1].steps}
				// The one call stands for the first round of both runs.
				wantRPCs = runs[0].rpcs + runs[1].rpcs - len(readers)
				return nil
			})
			if err != nil {
				t.Fatalf("%s: reference read: %v", what, err)
			}
			if _, ok := w.truth[key]; ok != found {
				t.Fatalf("%s: the three-call read finds the key: %v; the directory holds it: %v", what, found, ok)
			}

			// What the states cover. (A witness never holds the winning
			// version alone here: W exceeds the witnesses' votes twice
			// over, so a store member among the readers ties with it, and
			// is preferred.)
			for _, i := range quorumIdx {
				v, holds := answerOf(w.reps[i].Dump(), x)
				switch {
				case found && v < w.version[key]:
					missing++
				case found && w.cfg.Members[i].Witness:
					witnessHeld++
				case !found && holds:
					staleUnderGap++
				}
			}

			err = suite.Delete(ctx, key)
			var got []string
			for _, spy := range spies {
				got = append(got, spy.take()...)
			}
			if !found {
				if !errors.Is(err, ErrKeyNotFound) || len(got) != 0 {
					t.Fatalf("%s: delete of an absent key = %v after writes %v; want ErrKeyNotFound and none", what, err, got)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the delete wrote\n%v\nthe three-call read would have it write\n%v", what, got, want)
			}
			o := rec.last(t)
			if o.SuccessorWalkSteps != wantSteps[0] || o.PredecessorWalkSteps != wantSteps[1] || o.NeighborRPCs != wantRPCs || o.Insertions != len(want)-len(quorumIdx) {
				t.Fatalf("%s: observed %+v; the three-call read walks %v steps and, its first rounds one call a member, sends %d neighbor RPCs and %d copies",
					what, o, wantSteps, wantRPCs, len(want)-len(quorumIdx))
			}
			if wantSteps[0] > 1 || wantSteps[1] > 1 {
				ghosts++
			}
			if o.Insertions > 0 {
				copied++
			}
			delete(w.truth, key)
			delete(w.version, key)

			// And the directory is the one without the key.
			script.set(w.quorumOf(w.cfg.R), nil)
			scan, err := suite.Scan(ctx, "", 0)
			if err != nil {
				t.Fatalf("%s: scan: %v", what, err)
			}
			var left []KV
			for _, k := range w.keys() {
				if !isSystemKey(keyspace.New(k)) {
					left = append(left, KV{Key: k, Value: w.truth[k]})
				}
			}
			if !reflect.DeepEqual(scan, left) {
				t.Fatalf("%s: afterwards a scan at %v = %v, the directory holds %v", what, script.readIdx, scan, left)
			}
		}
	}
	if missing == 0 || ghosts == 0 || staleUnderGap == 0 || witnessHeld == 0 || copied == 0 {
		t.Errorf("coverage: %d readers missed the newest entry, %d deletes skipped a ghost, %d readers held a stale entry under a newer gap, %d witnesses held the winning version, %d deletes copied a bound; want all five",
			missing, ghosts, staleUnderGap, witnessHeld, copied)
	}
}

// FuzzMergeRuns feeds the merge arbitrary replies — valid replica states
// or not — and checks it against Figure 8 applied key by key: every key
// some member holds an entry for, up to where the shortest reply ends, is
// decided once, in order, as a lookup of it at those members would be.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{2, 0x13, 5, 1, 0x25, 2, 7, 0xff, 0x13, 9, 1, 0x45, 3, 3}, false)
	f.Add([]byte{3, 0x11, 1, 1, 0xff, 0x21, 2, 2, 0xff, 0x31, 3, 3}, true)
	f.Add([]byte{2, 0x1f, 0, 4, 0xff, 0x1f, 0, 2}, false)
	f.Fuzz(func(t *testing.T, data []byte, desc bool) {
		if len(data) == 0 {
			return
		}
		// Layout: member count, then per member a list of (key step and
		// witness bit, version, gap version) triples ended by 0xff. The
		// last element of a reply may be the sentinel (step nibble 0xf).
		n := 2 + int(data[0])%3
		data = data[1:]
		members := make([]member, n)
		replies := make([][]rep.NeighborResult, n)
		end := keyspace.High()
		if desc {
			end = keyspace.Low()
		}
		for i := range members {
			members[i] = member{Member: quorum.Member{Dir: transport.NewLocal(rep.New(fmt.Sprintf("m%d", i))), Votes: 1}, idx: i}
			at := 0
			for len(data) >= 3 && data[0] != 0xff && len(replies[i]) < 8 {
				members[i].Witness = data[0]&0x80 != 0
				e := rep.NeighborResult{Version: version.V(data[1]), GapVersion: version.V(data[2]), Value: fmt.Sprint(i)}
				if step := int(data[0] & 0x0f); step == 0x0f {
					e.Key, e.Version = end, version.Lowest
				} else {
					at += 1 + step
					e.Key = keyspace.New(fmt.Sprintf("%03d", at))
					if desc {
						e.Key = keyspace.New(fmt.Sprintf("%03d", 999-at))
					}
				}
				replies[i] = append(replies[i], e)
				data = data[3:]
				if e.Key.IsSentinel() {
					break
				}
			}
			if len(data) > 0 && data[0] == 0xff {
				data = data[1:]
			}
		}
		m := &merge{desc: desc, members: members, replies: replies, pos: make([]int, n), maxGap: version.Lowest}
		from := keyspace.Low()
		if desc {
			from = keyspace.High()
		}
		if err := m.load(from); err != nil {
			return // an empty reply
		}

		// What a lookup of key at member i would say.
		lookup := func(i int, key keyspace.Key) (rep.LookupResult, version.V) {
			for _, e := range replies[i] {
				if e.Key.Equal(key) {
					return rep.LookupResult{Found: true, Version: e.Version, Value: e.Value}, e.GapVersion
				}
				if ahead(desc, e.Key, key) {
					return rep.LookupResult{Version: e.GapVersion}, e.GapVersion
				}
			}
			t.Fatalf("key %s decided beyond the end of member %d's reply", key, i)
			return rep.LookupResult{}, 0
		}
		frontier := replies[0][len(replies[0])-1].Key
		var keys []keyspace.Key
		for _, reply := range replies {
			if last := reply[len(reply)-1].Key; ahead(desc, frontier, last) {
				frontier = last
			}
		}
		for _, reply := range replies {
			for _, e := range reply {
				if !ahead(desc, e.Key, frontier) {
					keys = append(keys, e.Key)
				}
			}
		}
		sort.Slice(keys, func(a, b int) bool { return ahead(desc, keys[b], keys[a]) })
		maxGap := version.Lowest
		for i, key := range keys {
			if i > 0 && key.Equal(keys[i-1]) {
				continue
			}
			got, won, holder, ok := m.next()
			if !ok || !got.Equal(key) {
				t.Fatalf("decided %s (ok %v), want %s next", got, ok, key)
			}
			best, bestIdx := rep.LookupResult{Version: version.Lowest}, -1
			for i := range members {
				res, gap := lookup(i, key)
				maxGap = version.Max(maxGap, gap)
				if outranks(members, i, res.Version, bestIdx, best.Version) {
					best, bestIdx = res, i
				}
			}
			if m.maxGap != maxGap {
				t.Fatalf("at %s the merge has crossed gap versions up to %d, want %d", key, m.maxGap, maxGap)
			}
			if key.IsSentinel() {
				if won == nil {
					t.Fatalf("the sentinel %s is not current", key)
				}
				continue
			}
			if best.Found != (won != nil) || best.Found && (holder != bestIdx || won.Version != best.Version || won.Value != best.Value) {
				t.Fatalf("at %s the merge chose %+v of member %d, a lookup %+v of member %d", key, won, holder, best, bestIdx)
			}
			for i := range members {
				res, _ := lookup(i, key)
				if v, holds := m.answer(i, key); v != res.Version || holds != res.Found {
					t.Fatalf("at %s member %d answered %d (entry: %v), a lookup says %+v", key, i, v, holds, res)
				}
			}
			if best.Found {
				m.maxGap, maxGap = version.Lowest, version.Lowest
			}
		}
		if _, _, _, ok := m.next(); ok {
			t.Fatalf("the merge decided a key beyond the common span, which ends at %s", frontier)
		}
	})
}
