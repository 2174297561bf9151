package heal

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repdir/internal/core"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/obs"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// fixture is a 3-replica 2/2 suite with crashable members.
type fixture struct {
	suite  *core.Suite
	names  []string
	reps   []*rep.Rep
	locals []*transport.Local
	dirs   []rep.Directory
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{names: []string{"A", "B", "C"}}
	for _, n := range f.names {
		r := rep.New(n)
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
	return f
}

// has reports whether replica i physically stores key.
func (f *fixture) has(i int, key string) bool {
	for _, e := range f.reps[i].Dump() {
		if e.Key.Equal(keyspace.New(key)) {
			return true
		}
	}
	return false
}

// divergeC inserts n keys while C is crashed, leaving C behind, then
// restarts C. Returns the keys.
func (f *fixture) divergeC(t *testing.T, n int) []string {
	t.Helper()
	ctx := context.Background()
	f.locals[2].Crash()
	var keys []string
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := f.suite.Insert(ctx, k, "v"); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	f.locals[2].Restart()
	return keys
}

// TestHealerRepairsOnRecovery checks one pass over a member back from
// an outage: it brings the member fully current, page by page, and the
// returned stats and the onPage hook account for the work.
func TestHealerRepairsOnRecovery(t *testing.T) {
	f := newFixture(t)
	keys := f.divergeC(t, 8)

	h := New(f.suite, f.dirs, Config{PageSize: 4})
	pages := 0
	stats, err := h.Repair(context.Background(), "C", func(core.RepairStats) { pages++ })
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !f.has(2, k) {
			t.Errorf("after repair, C is missing %s", k)
		}
	}
	if stats.Copied != len(keys) {
		t.Errorf("Copied = %d, want %d", stats.Copied, len(keys))
	}
	if pages < 2 {
		t.Errorf("onPage ran %d times, want >= 2 at page size 4 with 8 entries", pages)
	}
}

// TestHealerConverge checks the fixpoint loop: after Converge, every
// replica physically holds every current entry, and a second Converge
// finds nothing to do.
func TestHealerConverge(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	keys := f.divergeC(t, 6)

	h := New(f.suite, f.dirs, Config{PageSize: 4})
	stats, err := h.Converge(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied == 0 {
		t.Errorf("converge copied nothing: %+v", stats)
	}
	for i := range f.reps {
		for _, k := range keys {
			if !f.has(i, k) {
				t.Errorf("%s missing %s after converge", f.names[i], k)
			}
		}
	}

	again, err := h.Converge(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again.Copied != 0 || again.Freshened != 0 {
		t.Errorf("second converge found work: %+v", again)
	}
}

// TestHealerRebuild wipes C entirely — fresh empty representative in
// recovering mode, as rep.OpenDurable produces under RecoverRebuild —
// and checks that a repair pass restores both the current entries and
// the deletion knowledge (gap versions), with the work visible in the
// returned stats and the pass in the observer's "heal" operations.
func TestHealerRebuild(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	var keys []string
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := f.suite.Insert(ctx, k, "v"); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := f.suite.Delete(ctx, "k03"); err != nil {
		t.Fatal(err)
	}

	fresh := rep.New("C")
	fresh.SetRecovering(true)
	f.reps[2] = fresh
	f.locals[2].Replace(fresh)

	o := obs.NewObserver(obs.ObserverConfig{NoTrace: true})
	h := New(f.suite, f.dirs, Config{PageSize: 2, Obs: o})
	pages := 0
	stats, err := h.Repair(ctx, "C", func(core.RepairStats) { pages++ })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied != 5 {
		t.Errorf("Copied = %d, want 5 current entries", stats.Copied)
	}
	if stats.Gaps == 0 {
		t.Error("rebuild reconciled no gap segments")
	}
	fresh.SetRecovering(false)

	for _, k := range keys {
		want := k != "k03"
		if f.has(2, k) != want {
			t.Errorf("after rebuild, has(C, %s) = %v, want %v", k, !want, want)
		}
	}

	if pages == 0 {
		t.Error("onPage never ran: no page committed")
	}
	if n := o.OpCounts()["heal"]; n != 1 {
		t.Errorf("observer counted %d heal passes, want 1", n)
	}

	if _, err := h.Repair(ctx, "nobody", nil); err == nil {
		t.Error("Repair accepted an unknown member")
	}
}

// TestHealerPace checks that the page pace actually spaces repair
// transactions out: 6 entries at page size 2 with a 20ms pace cannot
// finish in under 60ms.
func TestHealerPace(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	f.divergeC(t, 6)

	h := New(f.suite, f.dirs, Config{PageSize: 2, Pace: 20 * time.Millisecond})
	start := time.Now()
	if _, err := h.Repair(ctx, "C", nil); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 60*time.Millisecond {
		t.Errorf("paced repair took %v, want >= 60ms", took)
	}
	// The pace is also the cancellation point: an expired context stops
	// the pass between pages and fails it.
	f.locals[2].Crash()
	if err := f.suite.Insert(ctx, "late", "v"); err != nil {
		t.Fatal(err)
	}
	f.locals[2].Restart()
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := h.Repair(cctx, "C", nil); err == nil {
		t.Error("repair ran to completion under a cancelled context")
	}
}

// flakyDir wraps a directory so its lookups fail with
// transport.ErrUnavailable until the failure budget is consumed —
// a peer that drops off briefly and comes back.
type flakyDir struct {
	rep.Directory
	failures int
}

func (f *flakyDir) Lookup(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	if f.failures > 0 {
		f.failures--
		return rep.LookupResult{}, fmt.Errorf("%w: injected blip", transport.ErrUnavailable)
	}
	return f.Directory.Lookup(ctx, txn, key)
}

// TestHealerRebuildRetriesTransient is the regression test for the old
// behavior where one transient peer error failed an entire rebuild: a
// pass must ride out a bounded number of blips, retrying, and still
// complete.
func TestHealerRebuildRetriesTransient(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	// Diverge with the fixture's default suite (full retry budget), so
	// the setup inserts ride out C's crash like production traffic would.
	keys := f.divergeC(t, 6)
	// Then hand the healer a suite with a zero in-transaction retry
	// budget so the injected blips surface to the healer instead of
	// being absorbed by the operation retry loop.
	cfg := quorum.NewUniform(f.dirs, 2, 2)
	suite, err := core.NewSuite(cfg,
		core.WithSelector(quorum.NewRandomSelector(cfg, 21)),
		core.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	f.suite = suite

	flaky := &flakyDir{Directory: f.locals[2], failures: 2}
	h := New(f.suite, []rep.Directory{f.dirs[0], f.dirs[1], flaky}, Config{PageSize: 4})
	stats, err := h.Repair(ctx, "C", nil)
	if err != nil {
		t.Fatalf("rebuild did not survive transient blips: %v (stats %+v)", err, stats)
	}
	// The suite retries nothing itself, so each blip failed a pass
	// attempt that the healer ran again.
	if flaky.failures != 0 {
		t.Errorf("%d blips left unmet, want the pass to have met both", flaky.failures)
	}
	for _, k := range keys {
		if !f.has(2, k) {
			t.Errorf("after rebuild, C is missing %s", k)
		}
	}

	// A persistently dead peer still fails the rebuild once the retry
	// budget is exhausted.
	f.locals[2].Crash()
	wedged := &flakyDir{Directory: f.locals[2], failures: 1 << 30}
	o := obs.NewObserver(obs.ObserverConfig{})
	h2 := New(f.suite, []rep.Directory{f.dirs[0], f.dirs[1], wedged}, Config{PageSize: 4, Obs: o})
	if _, err := h2.Repair(ctx, "C", nil); err == nil {
		t.Fatal("rebuild succeeded against a persistently dead peer")
	}
	retries := 0
	for _, sp := range o.Tracer().Recent()[0].Spans {
		if sp.Name == "retry-backoff" {
			retries++
		}
	}
	if retries != passRetries {
		t.Errorf("the pass was retried %d times, want %d", retries, passRetries)
	}
	f.locals[2].Restart()
}
