package transport

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
)

// TestEpochOverTCP exercises the v2 wire epoch end to end: a Status
// probe under WithEpoch fences the remote representative, after which
// stale-epoch operations fail across the wire with an error that still
// satisfies errors.Is(err, rep.ErrStaleEpoch), and current-epoch
// operations proceed.
func TestEpochOverTCP(t *testing.T) {
	ctx := context.Background()
	r := rep.New("A")
	srv, err := Serve(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Fence the representative at epoch 3 via the Status verb.
	if _, err := c.Status(rep.WithEpoch(ctx, 3), 0); err != nil {
		t.Fatalf("status probe: %v", err)
	}
	if got := r.Fence(); got != 3 {
		t.Fatalf("fence = %d after remote Status at epoch 3", got)
	}

	// A stale-epoch caller is rejected, identity intact.
	_, err = c.Lookup(rep.WithEpoch(ctx, 2), 1, keyspace.New("k"))
	if !errors.Is(err, rep.ErrStaleEpoch) {
		t.Fatalf("stale lookup = %v, want ErrStaleEpoch", err)
	}
	// So is a legacy caller with no epoch at all: mixing old and
	// new configurations must fail loudly, not silently.
	if _, err := c.Lookup(ctx, 1, keyspace.New("k")); !errors.Is(err, rep.ErrStaleEpoch) {
		t.Fatalf("unversioned lookup = %v, want ErrStaleEpoch", err)
	}

	// Current and newer epochs work (and adopt virally).
	if _, err := c.Lookup(rep.WithEpoch(ctx, 3), 2, keyspace.New("k")); err != nil {
		t.Fatalf("current-epoch lookup: %v", err)
	}
	if _, err := c.Lookup(rep.WithEpoch(ctx, 5), 3, keyspace.New("k")); err != nil {
		t.Fatalf("newer-epoch lookup: %v", err)
	}
	if got := r.Fence(); got != 5 {
		t.Fatalf("fence = %d after epoch-5 op", got)
	}
	// The bypass epoch is never fenced and never adopts.
	if _, err := c.Lookup(rep.WithEpoch(ctx, rep.EpochBypass), 4, keyspace.New("k")); err != nil {
		t.Fatalf("bypass lookup: %v", err)
	}
	if got := r.Fence(); got != 5 {
		t.Fatalf("fence = %d after bypass op, want 5", got)
	}
	for txn := 1; txn <= 4; txn++ {
		_ = r.Abort(ctx, lock.TxnID(txn))
	}
}

// TestRedialBackoffJitter is the regression test for redial jitter: the
// backoff grows exponentially to the cap, every delay is jittered into
// [wait/2, wait), and clients with different seeds produce different
// schedules (the anti-lockstep property), while a fixed seed reproduces
// its schedule exactly.
func TestRedialBackoffJitter(t *testing.T) {
	schedule := func(seed int64, n int) []time.Duration {
		c := &Client{rng: rand.New(rand.NewSource(seed))}
		out := make([]time.Duration, n)
		c.mu.Lock()
		for i := range out {
			out[i] = c.advanceBackoff()
		}
		c.mu.Unlock()
		return out
	}

	a := schedule(1, 12)
	nominal := redialBase
	for i, d := range a {
		if d < nominal/2 || d >= nominal {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", i, d, nominal/2, nominal)
		}
		if nominal < redialMax {
			nominal *= 2
			if nominal > redialMax {
				nominal = redialMax
			}
		}
	}
	if nominal != redialMax {
		t.Fatalf("backoff never reached the cap: %v", nominal)
	}

	if b := schedule(1, 12); !durationsEqual(a, b) {
		t.Error("same seed produced different schedules; jitter must be deterministic under a pinned seed")
	}
	diff := false
	for _, d := range [][]time.Duration{schedule(2, 12), schedule(3, 12)} {
		if !durationsEqual(a, d) {
			diff = true
		}
	}
	if !diff {
		t.Error("distinct seeds produced identical schedules; no jitter")
	}
}

func durationsEqual(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
