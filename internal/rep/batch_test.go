package rep

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/version"
)

func TestPredecessorBatchWalksDown(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "b", 1, "vb")
	mustInsert(t, r, 2, "d", 2, "vd")
	mustInsert(t, r, 3, "f", 3, "vf")

	txn := lock.TxnID(4)
	batch, err := r.PredecessorBatch(ctx, txn, k("g"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch length = %d, want 3", len(batch))
	}
	wantKeys := []string{"f", "d", "b"}
	wantVers := []version.V{3, 2, 1}
	for i := range wantKeys {
		if !batch[i].Key.Equal(k(wantKeys[i])) || batch[i].Version != wantVers[i] {
			t.Errorf("batch[%d] = %s v%d, want %s v%d",
				i, batch[i].Key, batch[i].Version, wantKeys[i], wantVers[i])
		}
	}
	r.Commit(ctx, txn)
}

func TestSuccessorBatchWalksUp(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "b", 1, "vb")
	mustInsert(t, r, 2, "d", 2, "vd")

	txn := lock.TxnID(3)
	batch, err := r.SuccessorBatch(ctx, txn, k("a"), 5)
	if err != nil {
		t.Fatal(err)
	}
	// b, d, HIGH — then the walk stops.
	if len(batch) != 3 {
		t.Fatalf("batch length = %d, want 3 (b, d, HIGH)", len(batch))
	}
	if !batch[0].Key.Equal(k("b")) || !batch[1].Key.Equal(k("d")) || !batch[2].Key.IsHigh() {
		t.Errorf("batch keys = %v %v %v", batch[0].Key, batch[1].Key, batch[2].Key)
	}
	r.Commit(ctx, txn)
}

func TestBatchStopsAtSentinels(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "m", 1, "v")
	txn := lock.TxnID(2)
	batch, err := r.PredecessorBatch(ctx, txn, k("z"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || !batch[1].Key.IsLow() {
		t.Fatalf("batch should stop at LOW: %v", batch)
	}
	r.Commit(ctx, txn)
}

func TestBatchMatchesSingleCalls(t *testing.T) {
	// The batch must return exactly what repeated single calls would:
	// same keys, versions, and gap versions.
	r := New("A")
	rng := rand.New(rand.NewSource(5))
	keys := make([]string, 0, 30)
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%03d", rng.Intn(500))
		keys = append(keys, key)
		id := lock.TxnID(i + 1)
		if err := r.Insert(ctx, id, k(key), version.V(i+1), "v"); err != nil {
			t.Fatal(err)
		}
		r.Commit(ctx, id)
	}
	sort.Strings(keys)
	probe := k("k999")

	txn := lock.TxnID(100)
	batch, err := r.PredecessorBatch(ctx, txn, probe, 8)
	if err != nil {
		t.Fatal(err)
	}
	cur := probe
	for i, nb := range batch {
		single, err := r.Predecessor(ctx, txn, cur)
		if err != nil {
			t.Fatal(err)
		}
		if !single.Key.Equal(nb.Key) || single.Version != nb.Version ||
			single.GapVersion != nb.GapVersion || single.Value != nb.Value {
			t.Fatalf("batch[%d] = %+v, single calls give %+v", i, nb, single)
		}
		cur = nb.Key
	}

	sbatch, err := r.SuccessorBatch(ctx, txn, keyspace.Low(), 8)
	if err != nil {
		t.Fatal(err)
	}
	cur = keyspace.Low()
	for i, nb := range sbatch {
		single, err := r.Successor(ctx, txn, cur)
		if err != nil {
			t.Fatal(err)
		}
		if !single.Key.Equal(nb.Key) || single.GapVersion != nb.GapVersion {
			t.Fatalf("succ batch[%d] = %+v, single calls give %+v", i, nb, single)
		}
		cur = nb.Key
	}
	r.Commit(ctx, txn)
}

func TestBatchValidation(t *testing.T) {
	r := New("A")
	if _, err := r.PredecessorBatch(ctx, 1, keyspace.Low(), 3); !errors.Is(err, ErrNoNeighbor) {
		t.Errorf("PredecessorBatch(LOW) = %v", err)
	}
	if _, err := r.SuccessorBatch(ctx, 1, keyspace.High(), 3); !errors.Is(err, ErrNoNeighbor) {
		t.Errorf("SuccessorBatch(HIGH) = %v", err)
	}
	if _, err := r.PredecessorBatch(ctx, 1, k("x"), 0); err == nil {
		t.Error("zero batch size should be rejected")
	}
	r.Abort(ctx, 1)
}

// A refused call is not a served message, and a count off the wire does
// not size the reply: the page constant does.
func TestBatchRefusedBeforeCountedAndClamped(t *testing.T) {
	r := New("A")
	for i := 0; i < 2*MaxBatch; i++ {
		mustInsert(t, r, lock.TxnID(i+1), fmt.Sprintf("k%03d", i), 1, "v")
	}
	for _, max := range []int{0, -1} {
		if _, err := r.SuccessorBatch(ctx, 500, keyspace.Low(), max); err == nil {
			t.Errorf("SuccessorBatch(max %d) accepted", max)
		}
		if _, err := r.PredecessorBatch(ctx, 500, keyspace.High(), max); err == nil {
			t.Errorf("PredecessorBatch(max %d) accepted", max)
		}
	}
	if n := r.Counters().NeighborProbes; n != 0 {
		t.Errorf("refused batch calls counted as %d served neighbor probes", n)
	}
	if n := r.Locks().ActiveTransactions(); n != 0 {
		t.Errorf("refused batch calls left %d transactions holding locks", n)
	}
	for _, down := range []bool{false, true} {
		var batch []NeighborResult
		var err error
		if down {
			batch, err = r.PredecessorBatch(ctx, 501, keyspace.High(), 1<<20)
		} else {
			batch, err = r.SuccessorBatch(ctx, 501, keyspace.Low(), 1<<20)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != MaxBatch || cap(batch) != MaxBatch {
			t.Errorf("down=%v: a batch of 1<<20 returned len %d cap %d, want the page, %d", down, len(batch), cap(batch), MaxBatch)
		}
	}
	if n := r.Counters().NeighborProbes; n != 2 {
		t.Errorf("neighbor probes = %d, want 2", n)
	}
	r.Abort(ctx, 501)
}

// The probe key may be an entry, lie in a gap, or be a sentinel: the
// batch never returns it, and the first gap version is the one that
// follows (or precedes) the probe key.
func TestBatchProbeKeyPositions(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "b", 1, "vb")
	mustInsert(t, r, 2, "d", 2, "vd")
	mustInsert(t, r, 3, "f", 3, "vf")
	// Coalesce (b, f): d goes, the gap b..f gets version 7.
	if _, err := r.Coalesce(ctx, 4, k("b"), k("f"), 7); err != nil {
		t.Fatal(err)
	}
	r.Commit(ctx, 4)
	for _, tc := range []struct {
		probe   keyspace.Key
		up      string
		upGap   version.V
		down    string
		downGap version.V
	}{
		{k("b"), "f", 7, "", 0},
		{k("c"), "f", 7, "b", 7},
		{k("f"), "", 0, "b", 7},
		{k("a"), "b", 0, "", 0},
	} {
		up, err := r.SuccessorBatch(ctx, 9, tc.probe, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := keyspace.High()
		if tc.up != "" {
			want = k(tc.up)
		}
		if len(up) != 1 || !up[0].Key.Equal(want) || up[0].GapVersion != tc.upGap {
			t.Errorf("SuccessorBatch(%s) = %+v, want %s behind gap %d", tc.probe, up, want, tc.upGap)
		}
		down, err := r.PredecessorBatch(ctx, 9, tc.probe, 1)
		if err != nil {
			t.Fatal(err)
		}
		want = keyspace.Low()
		if tc.down != "" {
			want = k(tc.down)
		}
		if len(down) != 1 || !down[0].Key.Equal(want) || down[0].GapVersion != tc.downGap {
			t.Errorf("PredecessorBatch(%s) = %+v, want %s behind gap %d", tc.probe, down, want, tc.downGap)
		}
	}
	r.Abort(ctx, 9)
}

func TestBatchTakesRangeLock(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "b", 1, "v")
	mustInsert(t, r, 2, "d", 1, "v")
	// Txn 5 batches over [LOW..f]; a younger writer in that range dies.
	if _, err := r.PredecessorBatch(ctx, 5, k("f"), 5); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(ctx, 6, k("c"), 2, "w"); !errors.Is(err, lock.ErrDie) {
		t.Errorf("insert into batch-locked range = %v, want ErrDie", err)
	}
	r.Abort(ctx, 6)
	r.Abort(ctx, 5)
}
