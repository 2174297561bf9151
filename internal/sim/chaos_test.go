package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repdir/internal/core"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// repairFixture is a 3-replica 2/2 suite whose member C missed a run of
// inserts while partitioned and is back, behind.
type repairFixture struct {
	suite  *core.Suite
	reps   []*rep.Rep
	locals []*transport.Local
	dirs   []rep.Directory
	keys   []string
}

func newRepairFixture(t *testing.T, n int) *repairFixture {
	t.Helper()
	f := &repairFixture{}
	for _, name := range []string{"A", "B", "C"} {
		r := rep.New(name)
		l := transport.NewLocal(r)
		f.reps = append(f.reps, r)
		f.locals = append(f.locals, l)
		f.dirs = append(f.dirs, l)
	}
	cfg := quorum.NewUniform(f.dirs, 2, 2)
	s, err := core.NewSuite(cfg, core.WithSelector(quorum.NewRandomSelector(cfg, 21)))
	if err != nil {
		t.Fatal(err)
	}
	f.suite = s
	f.locals[2].Partition()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := s.Insert(context.Background(), k, "v"); err != nil {
			t.Fatal(err)
		}
		f.keys = append(f.keys, k)
	}
	f.locals[2].Heal()
	return f
}

// has reports whether replica i physically stores key.
func (f *repairFixture) has(i int, key string) bool {
	for _, e := range f.reps[i].Dump() {
		if e.Key.Equal(keyspace.New(key)) {
			return true
		}
	}
	return false
}

// flakyDir wraps a directory so its lookups fail with
// transport.ErrUnavailable until the failure budget is consumed — a
// peer that drops off briefly and comes back. It counts every lookup.
type flakyDir struct {
	rep.Directory
	failures, lookups int
}

func (f *flakyDir) Lookup(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	f.lookups++
	if f.failures > 0 {
		f.failures--
		return rep.LookupResult{}, fmt.Errorf("%w: injected blip", transport.ErrUnavailable)
	}
	return f.Directory.Lookup(ctx, txn, key)
}

// TestRepairRetryingRidesOutTransient checks the soak's pass retry: a
// target whose lookups fail twice is ridden out, and a target that
// never recovers fails after exactly repairRetries re-runs.
func TestRepairRetryingRidesOutTransient(t *testing.T) {
	ctx := context.Background()
	f := newRepairFixture(t, 6)
	// A suite with no in-transaction retry budget, so the injected blips
	// surface to the pass instead of being absorbed by the operation
	// retry loop. Each pass fails at its first lookup on the target.
	cfg := quorum.NewUniform(f.dirs, 2, 2)
	suite, err := core.NewSuite(cfg,
		core.WithSelector(quorum.NewRandomSelector(cfg, 21)),
		core.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}

	flaky := &flakyDir{Directory: f.locals[2], failures: 2}
	stats, err := repairRetrying(ctx, suite, flaky)
	if err != nil {
		t.Fatalf("repair did not survive transient blips: %v (stats %+v)", err, stats)
	}
	if flaky.failures != 0 {
		t.Errorf("%d blips left unmet, want the pass to have met both", flaky.failures)
	}
	for _, k := range f.keys {
		if !f.has(2, k) {
			t.Errorf("after repair, C is missing %s", k)
		}
	}

	wedged := &flakyDir{Directory: f.locals[2], failures: 1 << 30}
	if _, err := repairRetrying(ctx, suite, wedged); !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("repair against a persistently dead peer: err = %v, want ErrUnavailable", err)
	}
	if want := 1 + repairRetries; wedged.lookups != want {
		t.Errorf("the pass ran %d times, want %d (one plus %d re-runs)", wedged.lookups, want, repairRetries)
	}

	// A cancelled context fails the pass and is not retried.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := repairRetrying(cctx, suite, f.locals[2]); err == nil {
		t.Error("repair ran to completion under a cancelled context")
	}
}

// TestConvergeFixpoint checks the soak's fixpoint loop: after converge,
// every replica physically holds every current entry, and a second
// converge copies and freshens nothing.
func TestConvergeFixpoint(t *testing.T) {
	ctx := context.Background()
	f := newRepairFixture(t, 6)
	stats, err := converge(ctx, f.suite)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied == 0 {
		t.Errorf("converge copied nothing: %+v", stats)
	}
	for i := range f.reps {
		for _, k := range f.keys {
			if !f.has(i, k) {
				t.Errorf("%s missing %s after converge", f.reps[i].Name(), k)
			}
		}
	}
	again, err := converge(ctx, f.suite)
	if err != nil {
		t.Fatal(err)
	}
	if again.Copied != 0 || again.Freshened != 0 {
		t.Errorf("second converge found work: %+v", again)
	}
}
