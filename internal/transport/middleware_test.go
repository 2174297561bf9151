package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repdir/internal/keyspace"
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
	if err := m.Prepare(rep.MarkWriters(ctx, 1), 1); err != nil {
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

// swapHook delivers to whichever representative is current.
type swapHook struct {
	mu  sync.Mutex
	cur rep.Directory
}

func (h *swapHook) dir() rep.Directory {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cur
}

func (h *swapHook) Name() string { return h.dir().Name() }

func (h *swapHook) Enter(ctx context.Context, _ Op) (Call, error) {
	return Call{Ctx: ctx, Dir: h.dir()}, nil
}

func (*swapHook) Exit(_ Call, _ Op, err error) error { return err }

func TestMiddlewareDynamicTarget(t *testing.T) {
	a, b := rep.New("A"), rep.New("B")
	h := &swapHook{cur: a}
	m := &Middleware{Hook: h}
	if m.Name() != "A" {
		t.Error("should target A")
	}
	h.mu.Lock()
	h.cur = b
	h.mu.Unlock()
	if m.Name() != "B" {
		t.Error("should target B after swap")
	}
	if err := m.Insert(ctx, 1, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if got := b.Counters().Inserts; got != 1 {
		t.Errorf("B executed %d inserts, want 1", got)
	}
	m.Abort(ctx, 1)
}

// exitHook records what Exit sees and replaces the error of the ops in
// replace with its own.
type exitHook struct {
	swapHook
	replace map[Op]error
	refuse  map[Op]error
	seen    []outcome
}

type outcome struct {
	op  Op
	err error
}

func (h *exitHook) Enter(ctx context.Context, op Op) (Call, error) {
	if err := h.refuse[op]; err != nil {
		return Call{}, err
	}
	return h.swapHook.Enter(ctx, op)
}

func (h *exitHook) Exit(_ Call, op Op, err error) error {
	h.mu.Lock()
	h.seen = append(h.seen, outcome{op, err})
	h.mu.Unlock()
	if r := h.replace[op]; r != nil {
		return r
	}
	return err
}

// TestMiddlewareAfterSeesOutcomes: Exit runs after each delivered call,
// once, with the call's own error, and never for a call Enter refused
// (it reached no representative).
func TestMiddlewareAfterSeesOutcomes(t *testing.T) {
	boom := errors.New("refused")
	h := &exitHook{swapHook: swapHook{cur: rep.New("A")}, refuse: map[Op]error{OpCoalesce: boom}}
	m := &Middleware{Hook: h}

	if err := m.Insert(ctx, 1, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	// A failing call still completes — Exit must see its error.
	if err := m.Insert(ctx, 2, keyspace.Low(), 1, "x"); err == nil {
		t.Fatal("sentinel insert should fail")
	}
	if _, err := m.Coalesce(ctx, 1, keyspace.Low(), keyspace.High(), 1); !errors.Is(err, boom) {
		t.Fatalf("coalesce should be refused: %v", err)
	}
	m.Abort(ctx, 1)
	m.Abort(ctx, 2)

	if len(h.seen) != 4 {
		t.Fatalf("exit saw %d outcomes (%v), want 4", len(h.seen), h.seen)
	}
	if h.seen[0].op != OpInsert || h.seen[0].err != nil {
		t.Errorf("outcome 0 = %+v, want clean insert", h.seen[0])
	}
	if h.seen[1].op != OpInsert || h.seen[1].err == nil {
		t.Errorf("outcome 1 = %+v, want failed insert", h.seen[1])
	}
	for _, o := range h.seen {
		if o.op == OpCoalesce {
			t.Errorf("exit ran for a refused call: %+v", o)
		}
	}
}

// opStats is what statsHook counts for one operation.
type opStats struct {
	calls, errors, blocked int
	total                  time.Duration
}

// statsHook counts and times the calls it passes to a fixed target, the
// shape of sim/traffic's latency hook: Enter stamps the start in the
// Note, and Exit reads it back.
type statsHook struct {
	guard
	mu  sync.Mutex
	ops map[Op]*opStats
}

func newStatsHook(target rep.Directory, before func(Op) error) *statsHook {
	return &statsHook{guard: guard{dir: target, before: before}, ops: map[Op]*opStats{}}
}

func (h *statsHook) add(op Op, f func(*opStats)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ops[op] == nil {
		h.ops[op] = &opStats{}
	}
	f(h.ops[op])
}

func (h *statsHook) op(op Op) opStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.ops[op]; s != nil {
		return *s
	}
	return opStats{}
}

func (h *statsHook) Enter(ctx context.Context, op Op) (Call, error) {
	c, err := h.guard.Enter(ctx, op)
	if err != nil {
		h.add(op, func(s *opStats) { s.blocked++ })
		return c, err
	}
	c.Note = time.Now()
	return c, nil
}

func (h *statsHook) Exit(c Call, op Op, err error) error {
	d := time.Since(c.Note.(time.Time))
	h.add(op, func(s *opStats) {
		s.calls++
		s.total += d
		if err != nil {
			s.errors++
		}
	})
	return err
}

// TestCallStatsCountsAndLatency: a counting hook sees every delivered
// call with its error, and the Note it stamps at Enter comes back
// untouched at Exit, so the time between them covers the whole call —
// here a Local's 1ms latency nested beneath it.
func TestCallStatsCountsAndLatency(t *testing.T) {
	slow := NewLocal(rep.New("A"))
	slow.SetLatency(time.Millisecond)
	h := newStatsHook(slow, nil)
	m := &Middleware{Hook: h}
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

	if ins := h.op(OpInsert); ins.calls != 2 || ins.errors != 1 {
		t.Errorf("insert stats = %+v, want 2 calls / 1 error", ins)
	}
	lk := h.op(OpLookup)
	if lk.calls != 1 || lk.errors != 0 {
		t.Errorf("lookup stats = %+v", lk)
	}
	if lk.total < time.Millisecond {
		t.Errorf("lookup latency %v does not cover the 1ms link", lk.total)
	}
	if got := h.op(OpCommit).calls; got != 1 {
		t.Errorf("commit calls = %d", got)
	}
	if st := h.op(OpStatus); st != (opStats{}) {
		t.Errorf("idle op counted: %+v", st)
	}
}

// TestCallStatsCountsBlocked: a call refused at Enter reaches neither the
// representative nor Exit, so it is counted as blocked, not as a call.
func TestCallStatsCountsBlocked(t *testing.T) {
	boom := errors.New("blocked")
	r := rep.New("A")
	h := newStatsHook(r, func(op Op) error { return boom })
	m := &Middleware{Hook: h}
	if _, err := m.Lookup(ctx, 1, keyspace.New("k")); !errors.Is(err, boom) {
		t.Fatalf("lookup should be blocked: %v", err)
	}
	if s := h.op(OpLookup); s.blocked != 1 || s.calls != 0 {
		t.Errorf("blocked lookup stats = %+v", s)
	}
	if got := r.Counters().Lookups; got != 0 {
		t.Errorf("the representative executed %d lookups, want 0", got)
	}
}

// TestMiddlewareReplacedErrorZeroesResult: when Exit replaces a call's
// error, the caller gets the zero result — the reply it stands for was
// lost — while a passed-through error keeps the call's own result.
func TestMiddlewareReplacedErrorZeroesResult(t *testing.T) {
	lost := errors.New("reply lost")
	r := rep.New("A")
	h := &exitHook{swapHook: swapHook{cur: r}, replace: map[Op]error{OpLookup: lost, OpSuccessorBatch: lost}}
	m := &Middleware{Hook: h}
	if err := m.Insert(ctx, 1, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	res, err := m.Lookup(ctx, 2, keyspace.New("k"))
	if !errors.Is(err, lost) || res != (rep.LookupResult{}) {
		t.Errorf("replaced lookup = %+v, %v; want the zero result and the replacement", res, err)
	}
	batch, err := m.SuccessorBatch(ctx, 2, keyspace.Low(), 2)
	if !errors.Is(err, lost) || batch != nil {
		t.Errorf("replaced successor batch = %v, %v; want nil and the replacement", batch, err)
	}
	if got := r.Counters().Lookups; got != 1 {
		t.Errorf("the representative executed %d lookups, want 1: a replaced reply still ran", got)
	}
	st, err := m.Status(ctx, 1)
	if err != nil || st != rep.StatusCommitted {
		t.Errorf("passed-through status = %v, %v", st, err)
	}
	m.Abort(ctx, 2)
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
