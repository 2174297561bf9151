package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// withHedge is WithHedgedReads with the hedge delay clamped to
// [floor, ceil] instead of [1ms, 100ms].
func withHedge(floor, ceil time.Duration) Option {
	return func(s *Suite) { s.hedge = &hedgeState{floor: floor, ceil: ceil} }
}

func TestHedgeStateDelay(t *testing.T) {
	h := &hedgeState{floor: time.Millisecond, ceil: 10 * time.Millisecond}
	if h.hedgeDelay() != 0 {
		t.Fatal("cold estimator must not hedge")
	}
	// Warm up below the warmup threshold: still no hedging.
	for i := 0; i < hedgeWarmupProbes-1; i++ {
		h.observe(2 * time.Millisecond)
	}
	if h.hedgeDelay() != 0 {
		t.Fatal("estimator below warmup threshold must not hedge")
	}
	h.observe(2 * time.Millisecond)
	d := h.hedgeDelay()
	if d == 0 {
		t.Fatal("warmed estimator should produce a delay")
	}
	if d < time.Millisecond || d > 10*time.Millisecond {
		t.Fatalf("delay %v outside [floor, ceil]", d)
	}

	// Sub-floor latencies clamp up to the floor (never hedge
	// sub-millisecond probes), absurd tails clamp down to the ceiling.
	fast := &hedgeState{floor: time.Millisecond, ceil: 10 * time.Millisecond}
	for i := 0; i < hedgeWarmupProbes; i++ {
		fast.observe(time.Microsecond)
	}
	if got := fast.hedgeDelay(); got != time.Millisecond {
		t.Fatalf("fast-path delay = %v, want clamped to 1ms floor", got)
	}
	slow := &hedgeState{floor: time.Millisecond, ceil: 10 * time.Millisecond}
	for i := 0; i < hedgeWarmupProbes; i++ {
		slow.observe(10 * time.Second)
	}
	if got := slow.hedgeDelay(); got != 10*time.Millisecond {
		t.Fatalf("stuck-path delay = %v, want clamped to 10ms ceiling", got)
	}
}

// slowOnceDir delays the data path of one member by a fixed amount
// while armed — the single-slow-replica moment hedging exists for.
type slowOnceDir struct {
	*transport.Middleware
	mu    sync.Mutex
	delay time.Duration
}

func newSlowDir(inner rep.Directory) *slowOnceDir {
	s := &slowOnceDir{}
	s.Middleware = transport.Wrap(inner, func(op transport.Op) error {
		switch op {
		case transport.OpPrepare, transport.OpCommit, transport.OpAbort:
			return nil
		}
		s.mu.Lock()
		d := s.delay
		s.mu.Unlock()
		if d > 0 {
			time.Sleep(d)
		}
		return nil
	})
	return s
}

func (s *slowOnceDir) setDelay(d time.Duration) {
	s.mu.Lock()
	s.delay = d
	s.mu.Unlock()
}

// TestHedgedReadRescuesSlowReplica: with one quorum member suddenly
// slow, a hedged lookup completes near the hedge delay (spare answers)
// instead of waiting out the slow member, the result is still correct,
// and the hedge counters move.
func TestHedgedReadRescuesSlowReplica(t *testing.T) {
	ctx := context.Background()
	slow := newSlowDir(rep.New("A"))
	dirs := []rep.Directory{slow, transport.NewLocal(rep.New("B")), transport.NewLocal(rep.New("C"))}
	cfg := quorum.NewUniform(dirs, 2, 2)
	// Sticky selector always reads {A, B}, so C is the spare.
	suite, err := NewSuite(cfg,
		WithSelector(quorum.NewStickySelector(cfg)),
		WithParallelQuorum(true),
		withHedge(time.Millisecond, 5*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	// Warm the estimator with fast probes.
	for i := 0; i < hedgeWarmupProbes; i++ {
		if _, _, err := suite.Lookup(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	if suite.hedge.hedgeDelay() == 0 {
		t.Fatal("estimator should be warm")
	}

	// One member turns slow: the hedge must rescue the read.
	slow.setDelay(300 * time.Millisecond)
	start := time.Now()
	v, found, err := suite.Lookup(ctx, "k")
	elapsed := time.Since(start)
	if err != nil || !found || v != "v" {
		t.Fatalf("hedged lookup = %q, %v, %v", v, found, err)
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("lookup took %v: the hedge did not rescue it from the slow member", elapsed)
	}
	st := suite.Stats()
	if st.HedgedReads == 0 {
		t.Fatal("no hedge fired")
	}
	if st.HedgeWins == 0 {
		t.Fatal("hedge fired but never won against a 300ms member")
	}
}

// TestHedgeNoSpareFallsBack: a full-config quorum leaves no spare, so
// hedging degrades to plain probes — correct answers, no hedge fired.
func TestHedgeNoSpareFallsBack(t *testing.T) {
	ctx := context.Background()
	dirs := []rep.Directory{transport.NewLocal(rep.New("A")), transport.NewLocal(rep.New("B"))}
	cfg := quorum.NewUniform(dirs, 2, 2)
	suite, err := NewSuite(cfg, withHedge(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hedgeWarmupProbes+10; i++ {
		if v, found, err := suite.Lookup(ctx, "k"); err != nil || !found || v != "v" {
			t.Fatalf("lookup = %q, %v, %v", v, found, err)
		}
	}
	if suite.Stats().HedgedReads != 0 {
		t.Fatal("hedges fired with no spare to fire at")
	}
}

// TestHedgeWitnessNeverSpare: witnesses hold no values, so they must
// never be chosen as hedge spares even when they are the only members
// outside the read quorum.
func TestHedgeWitnessNeverSpare(t *testing.T) {
	ctx := context.Background()
	a, b := transport.NewLocal(rep.New("A")), transport.NewLocal(rep.New("B"))
	w := transport.NewLocal(rep.New("W"))
	cfg := quorum.Config{
		Members: []quorum.Member{
			{Dir: a, Votes: 1},
			{Dir: b, Votes: 1},
			{Dir: w, Votes: 1, Witness: true},
		},
		R: 2, W: 2,
	}
	suite, err := NewSuite(cfg,
		WithSelector(quorum.NewStickySelector(cfg)),
		withHedge(time.Millisecond, 5*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hedgeWarmupProbes+10; i++ {
		if v, found, err := suite.Lookup(ctx, "k"); err != nil || !found || v != "v" {
			t.Fatalf("lookup = %q, %v, %v", v, found, err)
		}
	}
	if suite.Stats().HedgedReads != 0 {
		t.Fatal("a witness was used as a hedge spare")
	}
}
