package transport

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
)

func TestMiddlewarePassThrough(t *testing.T) {
	m := Wrap(rep.New("A"), nil)
	if m.Name() != "A" {
		t.Error("name should pass through")
	}
	if err := m.Insert(ctx, 1, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := m.Prepare(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	res, err := m.Lookup(ctx, 2, keyspace.New("k"))
	if err != nil || !res.Found {
		t.Fatalf("lookup = %+v %v", res, err)
	}
	if _, err := m.Predecessor(ctx, 2, keyspace.New("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Successor(ctx, 2, keyspace.New("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PredecessorBatch(ctx, 2, keyspace.New("k"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SuccessorBatch(ctx, 2, keyspace.New("k"), 2); err != nil {
		t.Fatal(err)
	}
	if st, err := m.Status(ctx, 1); err != nil || st != rep.StatusCommitted {
		t.Fatalf("status = %v %v", st, err)
	}
	m.Abort(ctx, 2)
}

func TestMiddlewareBeforeBlocksCalls(t *testing.T) {
	boom := errors.New("blocked")
	var mu sync.Mutex
	seen := map[Op]int{}
	m := Wrap(rep.New("A"), func(op Op) error {
		mu.Lock()
		seen[op]++
		mu.Unlock()
		if op.IsMutation() {
			return boom
		}
		return nil
	})
	if err := m.Insert(ctx, 1, keyspace.New("k"), 1, "v"); !errors.Is(err, boom) {
		t.Fatalf("insert should be blocked: %v", err)
	}
	if _, err := m.Coalesce(ctx, 1, keyspace.Low(), keyspace.High(), 1); !errors.Is(err, boom) {
		t.Fatalf("coalesce should be blocked: %v", err)
	}
	if _, err := m.Lookup(ctx, 1, keyspace.New("k")); err != nil {
		t.Fatalf("lookup should pass: %v", err)
	}
	m.Abort(ctx, 1)
	if seen[OpInsert] != 1 || seen[OpLookup] != 1 || seen[OpAbort] != 1 {
		t.Errorf("hook counts = %v", seen)
	}
}

func TestMiddlewareDynamicTarget(t *testing.T) {
	a, b := rep.New("A"), rep.New("B")
	current := a
	var mu sync.Mutex
	m := &Middleware{Target: func() rep.Directory {
		mu.Lock()
		defer mu.Unlock()
		return current
	}}
	if m.Name() != "A" {
		t.Error("should target A")
	}
	mu.Lock()
	current = b
	mu.Unlock()
	if m.Name() != "B" {
		t.Error("should target B after swap")
	}
}

func TestCallStatsCountsAndLatency(t *testing.T) {
	m, stats := WrapStats(rep.New("A"))
	if err := m.Insert(ctx, 1, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Lookup(ctx, 2, keyspace.New("k")); err != nil {
		t.Fatal(err)
	}
	// Duplicate insert of a sentinel errors; the error must be counted.
	if err := m.Insert(ctx, 3, keyspace.Low(), 1, "x"); err == nil {
		t.Fatal("sentinel insert should fail")
	}
	m.Abort(ctx, 2)
	m.Abort(ctx, 3)

	ins := stats.Op(OpInsert)
	if ins.Calls != 2 || ins.Errors != 1 {
		t.Errorf("insert stats = %+v, want 2 calls / 1 error", ins)
	}
	lk := stats.Op(OpLookup)
	if lk.Calls != 1 || lk.Errors != 0 || lk.InFlight != 0 || lk.MaxInFlight < 1 {
		t.Errorf("lookup stats = %+v", lk)
	}
	if lk.Total <= 0 || lk.Avg() <= 0 {
		t.Errorf("lookup latency not recorded: %+v", lk)
	}
	if stats.InFlight() != 0 {
		t.Errorf("in-flight after quiesce = %d", stats.InFlight())
	}
	if got := stats.Snapshot()[OpCommit].Calls; got != 1 {
		t.Errorf("snapshot commit calls = %d", got)
	}
	// The latency histogram tracks the flat counters.
	if ins.Latency.Count != ins.Calls {
		t.Errorf("insert latency histogram count = %d, want %d", ins.Latency.Count, ins.Calls)
	}
	if lk.Latency.Count != 1 || lk.Latency.Sum != lk.Total {
		t.Errorf("lookup latency histogram = %+v, want count 1 sum %v", lk.Latency, lk.Total)
	}
	// Only operations that saw traffic render exposition samples, each
	// labeled member-then-op.
	samples := stats.LatencySamples("A")
	seen := map[string]bool{}
	for _, s := range samples {
		if len(s.Labels) != 2 || s.Labels[0] != "A" {
			t.Fatalf("sample labels = %v, want [A <op>]", s.Labels)
		}
		if s.Snap.Count == 0 {
			t.Errorf("empty histogram rendered for %v", s.Labels)
		}
		seen[s.Labels[1]] = true
	}
	if !seen[string(OpInsert)] || !seen[string(OpLookup)] {
		t.Errorf("latency samples missing ops: %v", seen)
	}
	if seen[string(OpStatus)] {
		t.Error("idle op rendered a latency sample")
	}
}

func TestCallStatsInFlightGauge(t *testing.T) {
	// A target that blocks until released, so several calls overlap.
	release := make(chan struct{})
	entered := make(chan struct{})
	target := blockingDir{Directory: rep.New("A"), entered: entered, release: release}
	stats := NewCallStats()
	m := &Middleware{Target: func() rep.Directory { return target }, Stats: stats}

	const n = 3
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.Lookup(ctx, 0, keyspace.New("k"))
		}(i)
	}
	for i := 0; i < n; i++ {
		<-entered
	}
	if got := stats.Op(OpLookup).InFlight; got != n {
		t.Errorf("in-flight while blocked = %d, want %d", got, n)
	}
	close(release)
	wg.Wait()
	s := stats.Op(OpLookup)
	if s.InFlight != 0 || s.MaxInFlight != n || s.Calls != n {
		t.Errorf("final lookup stats = %+v", s)
	}
}

func TestCallStatsCountsBlocked(t *testing.T) {
	boom := errors.New("blocked")
	stats := NewCallStats()
	m := Wrap(rep.New("A"), func(op Op) error { return boom })
	m.Stats = stats
	if _, err := m.Lookup(ctx, 1, keyspace.New("k")); !errors.Is(err, boom) {
		t.Fatalf("lookup should be blocked: %v", err)
	}
	s := stats.Op(OpLookup)
	if s.Blocked != 1 || s.Calls != 0 {
		t.Errorf("blocked lookup stats = %+v", s)
	}
}

func TestMiddlewareAfterSeesOutcomes(t *testing.T) {
	boom := errors.New("blocked")
	var mu sync.Mutex
	type outcome struct {
		op  Op
		err error
	}
	var seen []outcome
	m := Wrap(rep.New("A"), func(op Op) error {
		if op == OpCoalesce {
			return boom
		}
		return nil
	})
	m.After = func(op Op, err error) {
		mu.Lock()
		seen = append(seen, outcome{op, err})
		mu.Unlock()
	}

	if err := m.Insert(ctx, 1, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	// A failing call still completes — After must see its error.
	if err := m.Insert(ctx, 2, keyspace.Low(), 1, "x"); err == nil {
		t.Fatal("sentinel insert should fail")
	}
	// A call blocked by Before never reaches the target, so After must
	// NOT fire for it (the member was not actually probed).
	if _, err := m.Coalesce(ctx, 1, keyspace.Low(), keyspace.High(), 1); !errors.Is(err, boom) {
		t.Fatalf("coalesce should be blocked: %v", err)
	}
	m.Abort(ctx, 1)
	m.Abort(ctx, 2)

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 4 {
		t.Fatalf("after saw %d outcomes (%v), want 4", len(seen), seen)
	}
	if seen[0].op != OpInsert || seen[0].err != nil {
		t.Errorf("outcome 0 = %+v, want clean insert", seen[0])
	}
	if seen[1].op != OpInsert || seen[1].err == nil {
		t.Errorf("outcome 1 = %+v, want failed insert", seen[1])
	}
	for _, o := range seen {
		if o.op == OpCoalesce {
			t.Errorf("after fired for a Before-blocked call: %+v", o)
		}
	}
}

// blockingDir delays Lookup until release closes, signalling entry.
type blockingDir struct {
	rep.Directory
	entered chan<- struct{}
	release <-chan struct{}
}

func (d blockingDir) Lookup(c context.Context, id lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	d.entered <- struct{}{}
	<-d.release
	return rep.LookupResult{}, nil
}

func TestOpClassification(t *testing.T) {
	inquiries := []Op{OpLookup, OpPredecessor, OpSuccessor, OpPredecessorBatch, OpSuccessorBatch}
	for _, op := range inquiries {
		if !op.IsInquiry() || op.IsMutation() {
			t.Errorf("%s misclassified", op)
		}
	}
	for _, op := range []Op{OpInsert, OpCoalesce} {
		if op.IsInquiry() || !op.IsMutation() {
			t.Errorf("%s misclassified", op)
		}
	}
	for _, op := range []Op{OpPrepare, OpCommit, OpAbort, OpStatus} {
		if op.IsInquiry() || op.IsMutation() {
			t.Errorf("%s misclassified", op)
		}
	}
}
