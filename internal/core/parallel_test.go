package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// latencySuite builds a suite whose replicas each add delay per call.
func latencySuite(t *testing.T, delay time.Duration, parallel bool) (*Suite, []*transport.Local) {
	t.Helper()
	locals := make([]*transport.Local, 3)
	dirs := make([]rep.Directory, 3)
	for i, n := range []string{"A", "B", "C"} {
		locals[i] = transport.NewLocal(rep.New(n))
		locals[i].SetLatency(delay)
		dirs[i] = locals[i]
	}
	cfg := quorum.NewUniform(dirs, 3, 3) // full quorums maximize fan-out
	s, err := NewSuite(cfg, WithParallelQuorum(parallel))
	if err != nil {
		t.Fatal(err)
	}
	return s, locals
}

func TestParallelQuorumCorrectness(t *testing.T) {
	ctx := context.Background()
	s, _ := latencySuite(t, 0, true)
	if err := s.Insert(ctx, "k", "v1"); err != nil {
		t.Fatal(err)
	}
	if v, found, err := s.Lookup(ctx, "k"); err != nil || !found || v != "v1" {
		t.Fatalf("lookup = %q %v %v", v, found, err)
	}
	if err := s.Update(ctx, "k", "v2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := s.Lookup(ctx, "k"); found {
		t.Fatal("k should be deleted")
	}
	// Errors still surface with member identity.
	if err := s.Insert(ctx, "k2", "v"); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(ctx, "k2", "v"); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("duplicate insert = %v", err)
	}
}

// overlapHook is a Local that records, across every member sharing it,
// the most calls in flight at once.
type overlapHook struct {
	*transport.Local
	cur, peak *atomic.Int32
}

func (h overlapHook) Enter(ctx context.Context, op transport.Op) (transport.Call, error) {
	n := h.cur.Add(1)
	for p := h.peak.Load(); n > p && !h.peak.CompareAndSwap(p, n); p = h.peak.Load() {
	}
	c, err := h.Local.Enter(ctx, op)
	if err != nil {
		h.cur.Add(-1)
	}
	return c, err
}

func (h overlapHook) Exit(c transport.Call, op transport.Op, err error) error {
	h.cur.Add(-1)
	return h.Local.Exit(c, op, err)
}

// TestParallelQuorumCutsLatency: a parallel round sends its members'
// calls at once, so they overlap; a sequential one sends them one
// after another. Each call waits out a delay, so a parallel round that
// overlapped nothing would cost as much as a sequential one.
func TestParallelQuorumCutsLatency(t *testing.T) {
	ctx := context.Background()
	for _, parallel := range []bool{false, true} {
		var cur, peak atomic.Int32
		dirs := make([]rep.Directory, 3)
		for i, n := range []string{"A", "B", "C"} {
			l := transport.NewLocal(rep.New(n))
			l.SetLatency(4 * time.Millisecond)
			dirs[i] = &transport.Middleware{Hook: overlapHook{l, &cur, &peak}}
		}
		// Full quorums maximize fan-out.
		s, err := NewSuite(quorum.NewUniform(dirs, 3, 3), WithParallelQuorum(parallel))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Insert(ctx, "k", "v"); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		peak.Store(0)
		for i := 0; i < 10; i++ {
			if _, _, err := s.Lookup(ctx, "k"); err != nil {
				t.Fatal(err)
			}
		}
		switch got := peak.Load(); {
		case parallel && got < 2:
			t.Errorf("parallel lookups: at most %d call in flight, want the legs to overlap", got)
		case !parallel && got != 1:
			t.Errorf("sequential lookups: %d calls in flight at once, want 1", got)
		}
	}
}

func TestParallelQuorumReplicaFailure(t *testing.T) {
	ctx := context.Background()
	locals := make([]*transport.Local, 3)
	dirs := make([]rep.Directory, 3)
	for i, n := range []string{"A", "B", "C"} {
		locals[i] = transport.NewLocal(rep.New(n))
		dirs[i] = locals[i]
	}
	s, err := NewSuite(quorum.NewUniform(dirs, 2, 2), WithParallelQuorum(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	locals[1].Partition()
	for i := 0; i < 10; i++ {
		if v, found, err := s.Lookup(ctx, "k"); err != nil || !found || v != "v" {
			t.Fatalf("parallel lookup with failure: %q %v %v", v, found, err)
		}
	}
	if err := s.Delete(ctx, "k"); err != nil {
		t.Fatalf("parallel delete with failure: %v", err)
	}
}
