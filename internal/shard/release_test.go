package shard

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repdir/internal/core"
	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// abortGate holds the Aborts sent to one member, in the manner of
// waltest.File's Sync: each announces itself on Entered, waits for a
// value from Release, then sleeps for Delay. Leave a channel nil to skip
// its step; close Release to let every later Abort through.
type abortGate struct {
	rep.Directory
	Entered chan struct{}
	Release chan struct{}
	Delay   time.Duration
}

func (g *abortGate) Abort(ctx context.Context, id lock.TxnID) error {
	if g.Entered != nil {
		g.Entered <- struct{}{}
	}
	if g.Release != nil {
		<-g.Release
	}
	time.Sleep(g.Delay)
	return g.Directory.Abort(ctx, id)
}

// newParallelRouter builds a router that runs everything it can
// concurrently — its stitching, 2PC rounds and every suite's quorum
// rounds — over in-process 3-2-2 shards split at splits. Each suite reads
// and writes at its first two members (the sticky selector), and each
// member's Aborts pass through the gate gates returns for it, if any.
func newParallelRouter(t testing.TB, splits []string, gates func(shard, member int) *abortGate) (*Router, []*rep.Rep) {
	t.Helper()
	m, err := NewMap(splits...)
	if err != nil {
		t.Fatal(err)
	}
	var reps []*rep.Rep
	suites := make([]*core.Suite, m.Shards())
	for i := range suites {
		dirs := make([]rep.Directory, 3)
		for j := range dirs {
			r := rep.New(fmt.Sprintf("s%dr%d", i, j))
			reps = append(reps, r)
			dirs[j] = transport.NewLocal(r)
			if g := gates(i, j); g != nil {
				g.Directory, dirs[j] = dirs[j], g
			}
		}
		cfg := quorum.NewUniform(dirs, 2, 2)
		if suites[i], err = core.NewSuite(cfg, core.WithSelector(quorum.NewStickySelector(cfg)), core.WithParallelQuorum(true)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewRouter(m, suites, WithParallelStitch(true))
	if err != nil {
		t.Fatal(err)
	}
	return r, reps
}

// quiet checks that after a Drain no representative holds a lock or
// remembers a transaction: a transaction is known at one only while it
// holds a lock there (rep.Rep.join).
func quiet(t *testing.T, r *Router, reps []*rep.Rep) {
	t.Helper()
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, rp := range reps {
		if n := rp.Locks().ActiveTransactions(); n != 0 {
			t.Errorf("%s: %d transactions hold locks after Drain", rp.Name(), n)
		}
	}
}

// TestRouterWriteRightAfterScan: a router scan returns before its aborts
// arrive, so the update or delete of a scanned key that follows at once
// meets the scan's read locks — and waits, or dies and retries, whichever
// wait-die says, until the release lands. Every operation succeeds.
func TestRouterWriteRightAfterScan(t *testing.T) {
	ctx := context.Background()
	r, reps := newParallelRouter(t, []string{"k50"}, func(int, int) *abortGate {
		return &abortGate{Delay: time.Millisecond}
	})
	for i := 0; i < 100; i++ {
		if err := r.Insert(ctx, fmt.Sprintf("k%02d", i), "v0"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		page, err := r.Scan(ctx, fmt.Sprintf("k%02d", 4*i+3), 3)
		if err != nil || len(page) != 3 {
			t.Fatalf("scan %d: %v, %v", i, page, err)
		}
		if err := r.Update(ctx, page[0].Key, "v1"); err != nil {
			t.Fatalf("update of %s right after scanning it: %v", page[0].Key, err)
		}
		if err := r.Delete(ctx, page[2].Key); err != nil {
			t.Fatalf("delete of %s right after scanning it: %v", page[2].Key, err)
		}
	}
	quiet(t, r, reps)
	met := uint64(0)
	for _, rp := range reps {
		st := rp.Locks().Stats()
		met += st.Waits + st.Dies
	}
	if met == 0 {
		t.Error("no write met a scan's locks; the test needs the release to arrive late")
	}
}

// TestRouterTxnHeldUntilReleaseLands gates the Aborts of shard 0's first
// member: a scan of shard 0 returns, its release is stuck there, and the
// router runs other transactions meanwhile. None of them may run in the
// scan's Txn, and its page must stay what it was (under -race, any
// sharing is a report). Once the abort is let through, the Txn comes
// back to the router.
func TestRouterTxnHeldUntilReleaseLands(t *testing.T) {
	ctx := context.Background()
	gate := &abortGate{Entered: make(chan struct{}, 1), Release: make(chan struct{})}
	r, reps := newParallelRouter(t, []string{"m"}, func(shard, member int) *abortGate {
		if shard == 0 && member == 0 {
			return gate
		}
		return nil
	})
	for i := 0; i < 20; i++ {
		if err := r.Insert(ctx, fmt.Sprintf("a%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// The inserts return before their commit rounds land. A scan that
	// met one's locks would die and abort inline, through the gate, and
	// never return: only the scan's release may be held there.
	if err := r.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	page, err := r.Scan(ctx, "", 10)
	if err != nil || len(page) != 10 {
		t.Fatalf("scan: %v, %v", page, err)
	}
	want := fmt.Sprint(page)
	<-gate.Entered
	if n := r.releasing.Load(); n != 1 {
		t.Fatalf("%d releases in flight, want the scan's", n)
	}
	// Transactions on shard 1, whose releases land at once.
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("z%02d", i)
		if err := r.Insert(ctx, key, "v"); err != nil {
			t.Fatal(err)
		}
		if got, err := r.Scan(ctx, "y", 3); err != nil || len(got) != min(i+1, 3) {
			t.Fatalf("scan of shard 1: %v, %v", got, err)
		}
		if got, err := r.Scan(ctx, key, 1); err != nil || len(got) != 0 {
			t.Fatalf("scan past %s: %v, %v", key, got, err)
		}
	}
	for r.releasing.Load() > 1 { // the shard 1 transactions' releases
		time.Sleep(50 * time.Microsecond)
	}
	r.idleMu.Lock()
	before := map[*Txn]bool{}
	for _, x := range r.idle {
		before[x] = true
	}
	r.idleMu.Unlock()
	if got := fmt.Sprint(page); got != want {
		t.Fatalf("the scan's page changed under later transactions: %s, was %s", got, want)
	}
	close(gate.Release)
	if err := r.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	r.idleMu.Lock()
	back := 0
	for _, x := range r.idle {
		if !before[x] {
			back++
		}
	}
	r.idleMu.Unlock()
	if back != 1 {
		t.Errorf("%d Txns came back when the release landed, want the scan's one", back)
	}
	quiet(t, r, reps)
}

// TestRouterScanAllocs pins what a 10-entry scan through a parallel
// router over four in-process 3-2-2 shards allocates, its release round
// included (the run drains): the page, the batches two members answered
// with, and the closure of the goroutine the batch round spawns; the
// release round starts its two through funcs its txn.Txn keeps. The
// router's per-transaction state, its shard slots and its 2PC
// bookkeeping are reused.
func TestRouterScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const keys, runs = 1000, 500
	ctx := context.Background()
	r, _ := newParallelRouter(t, []string{"k0250", "k0500", "k0750"}, func(int, int) *abortGate { return nil })
	for i := 0; i < keys; i++ {
		if err := r.Insert(ctx, fmt.Sprintf("k%04d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	starts := make([]string, keys)
	for i := range starts {
		starts[i] = fmt.Sprintf("k%04d", i*37%(keys-10))
	}
	i := 0
	n := testing.AllocsPerRun(runs, func() {
		i++
		page, err := r.Scan(ctx, starts[i%keys], 10)
		if err != nil || len(page) != 10 {
			t.Fatalf("scan: %d entries, %v", len(page), err)
		}
		if err := r.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if n > 8 {
		t.Errorf("one router scan allocates %.1f times, want at most 8", n)
	} else {
		t.Logf("one router scan: %.1f allocations", n)
	}
}
