package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repdir/internal/lock"
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

// TestShedSurfacesWithoutRetry: a suite whose replicas shed every
// request must surface transport.ErrOverloaded on the first attempt,
// long before the caller's deadline. Shed replicas are alive, so they
// are never excluded; a suite that retried a refusal would spend every
// remaining attempt against servers asking it to stop.
func TestShedSurfacesWithoutRetry(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 1)
	suite, sheds := ts.suite, ts.hooks
	if err := suite.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}

	// 100% shed: every data-path call fails with ErrOverloaded.
	for _, s := range sheds {
		s.shed.Store(true)
	}
	retries := suite.Stats().Retries
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	start := time.Now()
	_, _, err := suite.Lookup(dctx, "k")
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
		s.shed.Store(false)
	}
	if _, _, err := suite.Lookup(ctx, "k"); err != nil {
		t.Fatalf("lookup after the shed: %v", err)
	}
}

// TestPointReadFailsOverOnRefusal: a point read whose read-quorum member
// sheds its probe asks the spare store member instead, inside the same
// round. The read succeeds, nothing is retried, and each of the three
// members is asked once. Two refusals share the one spare, so that read
// fails with the refusal. A read in a transaction of another shape,
// whose calls leave locks, does not fail over; nor does a point read
// that lost a member, which is retried without it.
func TestPointReadFailsOverOnRefusal(t *testing.T) {
	ctx := context.Background()
	// The sticky selector reads {A, B}: C is the spare. The two probes
	// of a round, and their failovers, run at once.
	ts := newSuite(t, []string{"A", "B", "C"}, 2, 2, func(cfg quorum.Config) quorum.Selector { return quorum.NewStickySelector(cfg) }, WithParallelQuorum(true))
	suite, sheds := ts.suite, ts.hooks
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

	sheds[0].shed.Store(true)
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

	sheds[1].shed.Store(true)
	before = lookups()
	if _, _, err := suite.Lookup(ctx, "k"); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("point read with A and B shedding = %v, want ErrOverloaded", err)
	}
	if got := lookups(); got[2] != before[2]+1 {
		t.Fatalf("the spare was asked %d times for two refusals; want once", got[2]-before[2])
	}

	sheds[1].shed.Store(false)
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

	sheds[0].shed.Store(false)
	sheds[0].lose(0)
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
// votes takes the place of a member with as few. A lookup adds its read
// quorum's witness votes to SuiteStats.WitnessVotes, and only those.
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
			var sheds [3]*hook
			var dirs [3]rep.Directory
			for i, r := range []*rep.Rep{rep.New("A"), rep.New("B"), rep.New("C", opts...)} {
				sheds[i], dirs[i] = newHooked(r, &counts{})
			}
			cfg := quorum.Config{Members: []quorum.Member{
				{Dir: dirs[0], Votes: 2}, {Dir: dirs[1], Votes: 1},
				{Dir: dirs[2], Votes: c.c.Votes, Witness: c.c.Witness},
			}, R: c.r, W: c.w}
			// Reads go to {A, B}: C is the one candidate. Writes go to
			// {A, B} too, as the sticky selector's would, unless W needs C:
			// with fewer_votes C then lacks "k", so the last read ranks A's
			// entry above C's empty reply.
			write := []int{0, 1}
			if c.c.Witness {
				write = []int{0, 1, 2}
			}
			script := &scriptSelector{cfg: cfg}
			script.set([]int{0, 1}, write)
			suite, err := NewSuite(cfg, WithSelector(script))
			if err != nil {
				t.Fatal(err)
			}
			defer suite.Close()
			if err := suite.Insert(ctx, "k", "v"); err != nil {
				t.Fatal(err)
			}

			sheds[0].shed.Store(true)
			before := sheds[2].lookups.Load()
			if _, _, err := suite.Lookup(ctx, "k"); !errors.Is(err, transport.ErrOverloaded) {
				t.Fatalf("point read with A shedding = %v, want ErrOverloaded", err)
			}
			if got := sheds[2].lookups.Load(); got != before {
				t.Fatalf("C was asked in place of A")
			}
			sheds[0].shed.Store(false)
			if c.c.Witness {
				if got := suite.Stats().WitnessVotes; got != 0 {
					t.Fatalf("%d witness votes before any read quorum held C", got)
				}
				script.set([]int{0, 2}, write)
				if v, found, err := suite.Lookup(ctx, "k"); err != nil || !found || v != "v" {
					t.Fatalf("point read at A and the witness = %q, %v, %v; want the value", v, found, err)
				}
				if got := suite.Stats().WitnessVotes; got != 2 {
					t.Fatalf("a read quorum holding the 2-vote witness added %d witness votes, want 2", got)
				}
				return
			}
			sheds[1].shed.Store(true)
			if v, found, err := suite.Lookup(ctx, "k"); err != nil || !found || v != "v" {
				t.Fatalf("point read with B (1 vote) shedding = %q, %v, %v; want the value from A and C", v, found, err)
			}
		})
	}
}
