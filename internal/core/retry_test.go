package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repdir/internal/lock"
	"repdir/internal/obs"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

func TestRetryable(t *testing.T) {
	cases := []struct {
		name  string
		err   error
		retry bool
	}{
		// Wait-die is deadlock avoidance: it always retries.
		{"die", lock.ErrDie, true},
		// A lost or recovering member retries, with that member excluded.
		{"unavailable", transport.ErrUnavailable, true},
		{"unavailable_and_die", fmt.Errorf("%w: %w", transport.ErrUnavailable, lock.ErrDie), true},
		{"recovering", rep.ErrRecovering, true},
		// An operation out of retries keeps its cause in the chain, and
		// the cause decides.
		{"die_exhausted", fmt.Errorf("%w: %w", ErrRetriesExhausted, lock.ErrDie), true},
		{"unavailable_exhausted", fmt.Errorf("%w: %w", ErrRetriesExhausted, transport.ErrUnavailable), true},
		// A resolver decided the attempt: re-run under a fresh attempt ID.
		{"txn_decided", rep.ErrTxnDecided, true},
		{"unknown_txn", rep.ErrUnknownTxn, true},
		// A server's refusal is never retried, whatever else the error
		// wraps.
		{"overloaded", transport.ErrOverloaded, false},
		{"expired", transport.ErrExpired, false},
		{"overloaded_and_unavailable", fmt.Errorf("%w: %w", transport.ErrOverloaded, transport.ErrUnavailable), false},
		{"overloaded_and_die", fmt.Errorf("%w: %w", transport.ErrOverloaded, lock.ErrDie), false},
		// Semantic errors are final.
		{"semantic", ErrKeyExists, false},
		{"stale_epoch", rep.ErrStaleEpoch, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Retryable(fmt.Errorf("op: %w", c.err)); got != c.retry {
				t.Fatalf("Retryable(%v) = %v, want %v", c.err, got, c.retry)
			}
		})
	}
}

// shedDir wraps a representative and, while switched on, sheds every
// data-path call with ErrOverloaded — an overloaded server's admission
// controller as seen from the client. 2PC resolution always passes,
// exactly like the real controller's sheddability rule.
// It counts the lookups it is sent, shed or not; with lost set it
// answers them as an unreachable member would.
type shedDir struct {
	*transport.Middleware
	on, lost atomic.Bool
	lookups  atomic.Int64
}

func newShedDir(inner rep.Directory) *shedDir {
	s := &shedDir{}
	s.Middleware = transport.Wrap(inner, func(op transport.Op) error {
		switch op {
		case transport.OpPrepare, transport.OpCommit, transport.OpAbort:
			return nil
		case transport.OpLookup:
			s.lookups.Add(1)
		}
		if s.on.Load() {
			return fmt.Errorf("%w: chaos shed %s", transport.ErrOverloaded, inner.Name())
		}
		if s.lost.Load() {
			return fmt.Errorf("%w: %s", transport.ErrUnavailable, inner.Name())
		}
		return nil
	})
	return s
}

// TestShedSurfacesWithoutRetry: a suite whose replicas shed every
// request must surface transport.ErrOverloaded on the first attempt,
// long before the caller's deadline. Shed replicas are alive, so they
// are never excluded; a suite that retried a refusal would spend every
// remaining attempt against servers asking it to stop.
func TestShedSurfacesWithoutRetry(t *testing.T) {
	ctx := context.Background()
	sheds := []*shedDir{newShedDir(rep.New("A")), newShedDir(rep.New("B")), newShedDir(rep.New("C"))}
	dirs := []rep.Directory{sheds[0], sheds[1], sheds[2]}
	cfg := quorum.NewUniform(dirs, 2, 2)
	suite, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}

	// 100% shed: every data-path call fails with ErrOverloaded.
	for _, s := range sheds {
		s.on.Store(true)
	}
	retries := suite.Stats().Retries
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	start := time.Now()
	_, _, err = suite.Lookup(dctx, "k")
	elapsed := time.Since(start)
	if !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("lookup under total shed = %v, want ErrOverloaded", err)
	}
	if got := suite.Stats().Retries; got != retries {
		t.Fatalf("a refusal was retried %d times", got-retries)
	}
	if dctx.Err() != nil || elapsed > 5*time.Second {
		t.Fatalf("took %v to surface the refusal; it should fail at once", elapsed)
	}

	for _, s := range sheds {
		s.on.Store(false)
	}
	if _, _, err := suite.Lookup(ctx, "k"); err != nil {
		t.Fatalf("lookup after the shed: %v", err)
	}
}

// TestPointReadFailsOverOnRefusal: a point read whose read-quorum member
// sheds its probe asks the spare store member instead, inside the same
// round. The read succeeds, nothing is retried, and the operation counts
// the spare's message. Two refusals share the one spare, so that read
// fails with the refusal. A read in a transaction of another shape,
// whose calls leave locks, does not fail over; nor does a point read
// that lost a member, which is retried without it.
func TestPointReadFailsOverOnRefusal(t *testing.T) {
	ctx := context.Background()
	sheds := []*shedDir{newShedDir(rep.New("A")), newShedDir(rep.New("B")), newShedDir(rep.New("C"))}
	dirs := []rep.Directory{sheds[0], sheds[1], sheds[2]}
	cfg := quorum.NewUniform(dirs, 2, 2)
	o := obs.NewObserver(obs.ObserverConfig{})
	// The sticky selector reads {A, B}: C is the spare. The two probes
	// of a round, and their failovers, run at once.
	suite, err := NewSuite(cfg, WithSelector(quorum.NewStickySelector(cfg)), WithObserver(o), WithParallelQuorum(true))
	if err != nil {
		t.Fatal(err)
	}
	defer suite.Close()
	if err := suite.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	// The insert's commit round goes out detached: let it land, or a
	// read may meet its lock and retry.
	if err := suite.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	lookups := func() (n [3]int64) {
		for i, s := range sheds {
			n[i] = s.lookups.Load()
		}
		return n
	}

	sheds[0].on.Store(true)
	retries, before := suite.Stats().Retries, lookups()
	v, found, err := suite.Lookup(ctx, "k")
	if err != nil || !found || v != "v" {
		t.Fatalf("point read with A shedding = %q, %v, %v; want the value from B and the spare", v, found, err)
	}
	if got := lookups(); got != [3]int64{before[0] + 1, before[1] + 1, before[2] + 1} {
		t.Fatalf("lookups at A, B, C went %v -> %v; want one each", before, got)
	}
	if got := suite.Stats().Retries; got != retries {
		t.Fatalf("the failover was retried %d times", got-retries)
	}
	recent := o.Tracer().Recent()
	if last := recent[len(recent)-1]; last.Op != "lookup" || last.Messages != 3 {
		t.Fatalf("last trace %s with %d messages; want a lookup with 3", last.Op, last.Messages)
	}

	sheds[1].on.Store(true)
	before = lookups()
	if _, _, err := suite.Lookup(ctx, "k"); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("point read with A and B shedding = %v, want ErrOverloaded", err)
	}
	if got := lookups(); got[2] != before[2]+1 {
		t.Fatalf("the spare was asked %d times for two refusals; want once", got[2]-before[2])
	}

	sheds[1].on.Store(false)
	before = lookups()
	err = suite.RunInTxn(ctx, func(tx *Tx) error {
		_, _, err := tx.Lookup(ctx, "k")
		return err
	})
	if !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("lookup in a transaction with A shedding = %v, want ErrOverloaded", err)
	}
	if got := lookups(); got[2] != before[2] {
		t.Fatalf("a read in a transaction asked the spare %d times; want none", got[2]-before[2])
	}

	sheds[0].on.Store(false)
	sheds[0].lost.Store(true)
	retries = suite.Stats().Retries
	if _, _, err := suite.Lookup(ctx, "k"); err != nil {
		t.Fatalf("point read with A lost: %v", err)
	}
	if got := suite.Stats().Retries; got != retries+1 {
		t.Fatalf("point read with A lost retried %d times, want once without A", got-retries)
	}
}

// TestFailoverSpares: a spare with fewer votes than the refusing member
// cannot take its place — the read set would no longer meet every write
// quorum — and a witness has no values to answer with, so in both cases
// the refusal stands and the spare is not asked. A spare with as many
// votes takes the place of a member with as few.
func TestFailoverSpares(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		c    quorum.Member // C's votes and kind
		r, w int
	}{
		{"fewer_votes", quorum.Member{Votes: 1}, 3, 3}, // A has 2
		{"witness", quorum.Member{Votes: 2, Witness: true}, 3, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			var opts []rep.Option
			if c.c.Witness {
				opts = append(opts, rep.AsWitness())
			}
			sheds := []*shedDir{newShedDir(rep.New("A")), newShedDir(rep.New("B")), newShedDir(rep.New("C", opts...))}
			cfg := quorum.Config{Members: []quorum.Member{
				{Dir: sheds[0], Votes: 2}, {Dir: sheds[1], Votes: 1},
				{Dir: sheds[2], Votes: c.c.Votes, Witness: c.c.Witness},
			}, R: c.r, W: c.w}
			// The sticky selector reads {A, B}: C is the one candidate.
			suite, err := NewSuite(cfg, WithSelector(quorum.NewStickySelector(cfg)))
			if err != nil {
				t.Fatal(err)
			}
			defer suite.Close()
			if err := suite.Insert(ctx, "k", "v"); err != nil {
				t.Fatal(err)
			}

			sheds[0].on.Store(true)
			before := sheds[2].lookups.Load()
			if _, _, err := suite.Lookup(ctx, "k"); !errors.Is(err, transport.ErrOverloaded) {
				t.Fatalf("point read with A shedding = %v, want ErrOverloaded", err)
			}
			if got := sheds[2].lookups.Load(); got != before {
				t.Fatalf("C was asked in place of A")
			}
			if c.c.Witness {
				return
			}
			sheds[0].on.Store(false)
			sheds[1].on.Store(true)
			if v, found, err := suite.Lookup(ctx, "k"); err != nil || !found || v != "v" {
				t.Fatalf("point read with B (1 vote) shedding = %q, %v, %v; want the value from A and C", v, found, err)
			}
		})
	}
}
