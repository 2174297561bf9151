package core

import (
	"context"
	"sync"
	"testing"
)

// rpcRecorder captures NeighborRPCs observations.
type rpcRecorder struct {
	mu    sync.Mutex
	total int
	count int
}

var _ Metrics = (*rpcRecorder)(nil)

func (r *rpcRecorder) ObserveDelete(o DeleteObservation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total += o.NeighborRPCs
	r.count++
}

func TestFanoutValidation(t *testing.T) {
	ts := newScriptedSuite(t, []string{"A", "B", "C"}, 2, 2)
	if _, err := NewSuite(ts.suite.cfg, WithNeighborFanout(0)); err == nil {
		t.Error("fanout 0 must be rejected")
	}
	if _, err := NewSuite(ts.suite.cfg, WithNeighborFanout(-2)); err == nil {
		t.Error("negative fanout must be rejected")
	}
	if _, err := NewSuite(ts.suite.cfg, WithNeighborFanout(3)); err != nil {
		t.Errorf("fanout 3 should be accepted: %v", err)
	}
}

// TestFanoutEquivalence runs the same scripted ghost-elimination scenario
// (Figures 10-11) under fanouts 1 and 3: the results must be identical;
// only the number of neighbor RPC messages may differ.
func TestFanoutEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, fanout := range []int{1, 2, 3, 8} {
		ts := newScriptedSuite(t, []string{"A", "B", "C"}, 2, 2)
		rec := &rpcRecorder{}
		suite, err := NewSuite(ts.suite.cfg,
			WithSelector(ts.script), WithMetrics(rec), WithNeighborFanout(fanout))
		if err != nil {
			t.Fatal(err)
		}
		ts.prepopulate(t, "a")

		ts.script.set([]int{0, 1}, []int{0, 1})
		if err := suite.Insert(ctx, "b", "val-b"); err != nil {
			t.Fatal(err)
		}
		if err := suite.Insert(ctx, "bb", "val-bb"); err != nil {
			t.Fatal(err)
		}
		ts.script.set([]int{0, 1}, []int{1, 2})
		if err := suite.Delete(ctx, "b"); err != nil {
			t.Fatal(err)
		}
		ts.script.set([]int{0, 1}, []int{0, 2})
		if err := suite.Delete(ctx, "a"); err != nil {
			t.Fatal(err)
		}

		// Same final state regardless of fanout.
		for _, q := range [][]int{{0, 1}, {0, 2}, {1, 2}} {
			ts.script.set(q, nil)
			if _, found, _ := suite.Lookup(ctx, "a"); found {
				t.Errorf("fanout %d: a should be absent", fanout)
			}
			if _, found, _ := suite.Lookup(ctx, "b"); found {
				t.Errorf("fanout %d: b should be absent", fanout)
			}
			if v, found, _ := suite.Lookup(ctx, "bb"); !found || v != "val-bb" {
				t.Errorf("fanout %d: bb wrong", fanout)
			}
		}
		if has, _ := ts.repHas(0, "b"); has {
			t.Errorf("fanout %d: ghost b not eliminated", fanout)
		}
		if rec.count != 2 {
			t.Fatalf("fanout %d: %d observations", fanout, rec.count)
		}
		// With fanout 1, the ghost-skipping delete of "a" needs an extra
		// probe round; with fanout >= 2 the one neighborhood read already
		// carries the ghost's neighbor.
		if fanout >= 2 && rec.total != 2*2 {
			t.Errorf("fanout %d: %d neighbor RPCs, want 4 (one call a member a delete)",
				fanout, rec.total)
		}
	}
}
