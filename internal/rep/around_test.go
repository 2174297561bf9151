package rep

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/version"
)

// randomTree builds a representative with up to n of the keys k000..,
// at random versions, and coalesces a few ranges so that the gaps carry
// versions of their own.
func randomTree(t *testing.T, rng *rand.Rand, n, space int) (*Rep, []string) {
	t.Helper()
	r := New("A")
	id := lock.TxnID(1)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%03d", rng.Intn(space))
		mustInsert(t, r, id, key, version.V(1+rng.Intn(9)), "v"+key)
		id++
	}
	for i := 0; i < n/4; i++ {
		// Coalesce between two stored entries: whatever lay between them
		// goes, and the gap takes a high version.
		es := r.Dump()
		lo := rng.Intn(len(es) - 1)
		hi := lo + 1 + rng.Intn(min(3, len(es)-1-lo))
		commitOp(t, r, id, func() error {
			_, err := r.Coalesce(ctx, id, es[lo].Key, es[hi].Key, version.V(10+rng.Intn(9)))
			return err
		})
		id++
	}
	var keys []string
	for _, e := range r.Dump() {
		if !e.Key.IsSentinel() {
			keys = append(keys, e.Key.Raw())
		}
	}
	return r, keys
}

// TestNeighborhoodMatchesThreeCalls: under the neighborhood mark one
// SuccessorBatch returns, split at the key, exactly what
// PredecessorBatch, Lookup and SuccessorBatch return for it — field for
// field — for one probe on the counters and one lock, over the span
// from the lowest to the highest key returned.
func TestNeighborhoodMatchesThreeCalls(t *testing.T) {
	marked := MarkAround(ctx)
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size, space := rng.Intn(14), 30
		if seed%10 == 0 {
			size, space = 3*MaxBatch, 1000 // more than a page on each side
		}
		r, keys := randomTree(t, rng, size, space)
		probes := []string{fmt.Sprintf("k%03d", rng.Intn(space)) + "x"} // absent
		if len(keys) > 0 {
			// Present: the first and last real keys, whose neighbors are
			// LOW and HIGH, and one in between.
			probes = append(probes, keys[0], keys[len(keys)-1], keys[rng.Intn(len(keys))])
			probes = append(probes, keys[0][:3], keys[len(keys)-1]+"z") // absent, before the first and after the last
		}
		id := lock.TxnID(10000)
		for _, p := range probes {
			for _, n := range []int{1, 3, MaxBatch + 1} {
				x := k(p)
				what := fmt.Sprintf("seed %d, %d around %s", seed, n, p)
				id += 2
				before, grants := r.Counters(), r.Locks().Stats().Grants
				hood, err := r.SuccessorBatch(marked, id, x, n)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				after := r.Counters()
				before.NeighborProbes++
				if after != before {
					t.Errorf("%s: counters %+v, want %+v: one probe and nothing else", what, after, before)
				}
				if got := r.Locks().Stats().Grants - grants; got != 1 || r.Locks().HeldBy(id) != 1 {
					t.Errorf("%s: %d lock grants, %d locks held; want one", what, got, r.Locks().HeldBy(id))
				}
				ref := id + 1
				preds, err := r.PredecessorBatch(ctx, ref, x, n)
				if err != nil {
					t.Fatal(err)
				}
				looked, err := r.Lookup(ctx, ref, x)
				if err != nil {
					t.Fatal(err)
				}
				succs, err := r.SuccessorBatch(ctx, ref, x, n)
				if err != nil {
					t.Fatal(err)
				}
				below, at, above := SplitAround(hood, x)
				if !reflect.DeepEqual(below, preds) {
					t.Errorf("%s: below = %+v, PredecessorBatch = %+v", what, below, preds)
				}
				if at != looked {
					t.Errorf("%s: at = %+v, Lookup = %+v", what, at, looked)
				}
				if !reflect.DeepEqual(above, succs) {
					t.Errorf("%s: above = %+v, SuccessorBatch = %+v", what, above, succs)
				}
				if own := hood[len(below)]; at.Found && own.GapVersion != succs[0].GapVersion {
					t.Errorf("%s: own entry %+v carries gap %d, the gap above it is %d", what, own, own.GapVersion, succs[0].GapVersion)
				}
				if want := min(n, MaxBatch); len(below) > want || len(above) > want {
					t.Errorf("%s: %d below and %d above, want at most %d a side", what, len(below), len(above), want)
				}
				if err := r.Abort(ctx, ref); err != nil {
					t.Fatal(err)
				}

				// The one lock spans the lowest to the highest key
				// returned: a younger writer dies at either end and just
				// inside, and writes freely just outside.
				lo, hi := below[len(below)-1].Key, above[len(above)-1].Key
				young := id + 5000
				for _, in := range []keyspace.Key{lo, keyspace.New(lo.Raw() + "!"), x, hi} {
					if in.IsSentinel() {
						continue
					}
					if err := r.Insert(ctx, young, in, 99, "w"); !errors.Is(err, lock.ErrDie) {
						t.Errorf("%s: insert of %s inside [%s, %s] = %v, want wait-die", what, in, lo, hi, err)
					}
				}
				if !hi.IsHigh() {
					if err := r.Insert(ctx, young, keyspace.New(hi.Raw()+"!"), 99, "w"); err != nil {
						t.Errorf("%s: insert just above %s = %v, want it free", what, hi, err)
					}
				}
				if err := r.Abort(ctx, young); err != nil {
					t.Fatal(err)
				}
				if err := r.Abort(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
		}
		idle(t, r)
	}
}

// TestNeighborhoodRefusals: the marked call refuses what any batch call
// refuses, and a bad count before it is counted.
func TestNeighborhoodRefusals(t *testing.T) {
	marked := MarkAround(ctx)
	r := New("A")
	mustInsert(t, r, 1, "b", 1, "vb")
	for _, n := range []int{0, -1} {
		if _, err := r.SuccessorBatch(marked, 5, k("b"), n); err == nil {
			t.Errorf("neighborhood of %d a side accepted", n)
		}
	}
	for _, s := range []keyspace.Key{keyspace.Low(), keyspace.High()} {
		if _, err := r.SuccessorBatch(marked, 5, s, 1); !errors.Is(err, ErrNoNeighbor) {
			t.Errorf("neighborhood of %s = %v, want ErrNoNeighbor", s, err)
		}
	}
	r.SetRecovering(true)
	if _, err := r.SuccessorBatch(marked, 5, k("b"), 1); !errors.Is(err, ErrRecovering) {
		t.Errorf("neighborhood at a recovering replica = %v, want ErrRecovering", err)
	}
	r.SetRecovering(false)
	if _, err := r.AdvanceEpoch(3); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SuccessorBatch(WithEpoch(marked, 2), 5, k("b"), 1); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("neighborhood from a stale epoch = %v, want ErrStaleEpoch", err)
	}
	if n := r.Counters().NeighborProbes; n != 0 {
		t.Errorf("refused calls counted as %d served probes", n)
	}
	if n := r.Locks().ActiveTransactions(); n != 0 {
		t.Errorf("refused calls left %d transactions holding locks", n)
	}

	// A decided transaction is refused after the count, like any call
	// that got as far as the representative's state.
	current := WithEpoch(marked, 3)
	if err := r.Insert(WithEpoch(ctx, 3), 50, k("x"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(MarkWriters(WithEpoch(ctx, 3), 1), 50); err != nil {
		t.Fatal(err)
	}
	if err := r.Abort(ctx, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SuccessorBatch(current, 50, k("b"), 1); !errors.Is(err, ErrTxnDecided) {
		t.Errorf("neighborhood under an aborted transaction = %v, want ErrTxnDecided", err)
	}
	idle(t, r)

	// The mark changes SuccessorBatch alone.
	down, err := r.PredecessorBatch(current, 60, k("c"), 1)
	if err != nil || len(down) != 1 || !down[0].Key.Equal(k("b")) {
		t.Errorf("PredecessorBatch under the mark = %+v, %v; want b", down, err)
	}
	if err := r.Abort(ctx, 60); err != nil {
		t.Fatal(err)
	}
}

// TestSplitAroundMalformed: a reply that is not a neighborhood — empty,
// or with nothing above the key — splits into an empty upward run and a
// zero lookup, which the suite's check of the runs refuses.
func TestSplitAroundMalformed(t *testing.T) {
	for _, hood := range [][]NeighborResult{nil, {{Key: keyspace.Low(), GapVersion: 3}}, {{Key: k("a"), Version: 2, GapVersion: 3}}} {
		below, at, above := SplitAround(hood, k("b"))
		if len(below) != len(hood) || at != (LookupResult{}) || len(above) != 0 {
			t.Errorf("SplitAround(%+v) = %+v, %+v, %+v", hood, below, at, above)
		}
	}
}
