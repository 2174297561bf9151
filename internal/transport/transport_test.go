package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
)

var ctx = context.Background()

func TestErrorCodesRoundTrip(t *testing.T) {
	tests := []struct {
		name   string
		err    error
		target error
	}{
		{"die", fmt.Errorf("ctx: %w", lock.ErrDie), lock.ErrDie},
		{"sentinel", rep.ErrSentinel, rep.ErrSentinel},
		{"missing bound", rep.ErrMissingBound, rep.ErrMissingBound},
		{"bad range", rep.ErrBadRange, rep.ErrBadRange},
		{"no neighbor", rep.ErrNoNeighbor, rep.ErrNoNeighbor},
		{"unavailable", ErrUnavailable, ErrUnavailable},
		{"txn decided", rep.ErrTxnDecided, rep.ErrTxnDecided},
		{"unknown txn", rep.ErrUnknownTxn, rep.ErrUnknownTxn},
		// A rebuilding replica bounces reads with ErrRecovering; the suite
		// only routes around it if the identity survives the wire.
		{"recovering", fmt.Errorf("read: %w", rep.ErrRecovering), rep.ErrRecovering},
		{"reserved txn", rep.ErrReservedTxn, rep.ErrReservedTxn},
		{"version moved", fmt.Errorf("insert: %w", rep.ErrVersionMoved), rep.ErrVersionMoved},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, msg := encodeError(tt.err)
			back := decodeError(c, msg)
			if !errors.Is(back, tt.target) {
				t.Errorf("decode(encode(%v)) = %v; lost identity", tt.err, back)
			}
		})
	}
	if c, _ := encodeError(nil); c != codeOK {
		t.Error("nil should encode as OK")
	}
	if decodeError(codeOK, "") != nil {
		t.Error("OK should decode as nil")
	}
	if back := decodeError(codeOther, "mystery"); back == nil || back.Error() != "mystery" {
		t.Errorf("other error should carry its message, got %v", back)
	}
}

// TestErrorCodesNeverMove pins every wire code's value: a code is only
// ever appended, so a peer from either side of the addition still names
// the errors both know the same way.
func TestErrorCodesNeverMove(t *testing.T) {
	for c, want := range map[code]int{codeOK: 0, codeDie: 1, codeSentinel: 2, codeMissingBound: 3,
		codeBadRange: 4, codeNoNeighbor: 5, codeUnavailable: 6, codeTxnDecided: 7, codeUnknownTxn: 8,
		codeRecovering: 9, codeOther: 10, codeStaleEpoch: 11, codeExpired: 12, codeOverloaded: 13,
		codeReservedTxn: 14, codeVersionMoved: 15} {
		if int(c) != want {
			t.Errorf("a code is numbered %d, want %d", c, want)
		}
	}
}

func TestLocalPassThrough(t *testing.T) {
	r := rep.New("A")
	l := NewLocal(r)
	if l.Name() != "A" {
		t.Error("name should pass through")
	}
	if err := l.Insert(ctx, 1, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	res, err := l.Lookup(ctx, 2, keyspace.New("k"))
	if err != nil || !res.Found || res.Value != "v" {
		t.Fatalf("lookup = %+v, %v", res, err)
	}
	nb, err := l.Predecessor(ctx, 2, keyspace.New("k"))
	if err != nil || !nb.Key.IsLow() {
		t.Fatalf("predecessor = %+v, %v", nb, err)
	}
	nb, err = l.Successor(ctx, 2, keyspace.New("k"))
	if err != nil || !nb.Key.IsHigh() {
		t.Fatalf("successor = %+v, %v", nb, err)
	}
	if err := l.Abort(ctx, 2); err != nil {
		t.Fatal(err)
	}
}

func TestLocalPartitionHeal(t *testing.T) {
	l := NewLocal(rep.New("A"))
	l.Partition()
	if l.Up() {
		t.Error("partitioned replica should report down")
	}
	if _, err := l.Lookup(ctx, 1, keyspace.New("k")); !errors.Is(err, ErrUnavailable) {
		t.Errorf("call on partitioned replica = %v, want ErrUnavailable", err)
	}
	if err := l.Insert(ctx, 1, keyspace.New("k"), 1, "v"); !errors.Is(err, ErrUnavailable) {
		t.Errorf("insert on partitioned replica = %v", err)
	}
	l.Heal()
	if !l.Up() {
		t.Error("healed replica should report up")
	}
	if _, err := l.Lookup(ctx, 1, keyspace.New("k")); err != nil {
		t.Errorf("call after heal: %v", err)
	}
	l.Abort(ctx, 1)
}

func TestLocalLatencyAndContext(t *testing.T) {
	l := NewLocal(rep.New("A"))
	l.SetLatency(5 * time.Millisecond)
	start := time.Now()
	if _, err := l.Lookup(ctx, 1, keyspace.New("k")); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Error("latency not applied")
	}
	l.Abort(ctx, 1)

	l.SetLatency(time.Second)
	cctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, err := l.Lookup(cctx, 2, keyspace.New("k")); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("latency sleep should respect context, got %v", err)
	}
}

func newServerClient(t *testing.T) (*rep.Rep, *Server, *Client) {
	t.Helper()
	r := rep.New("netrep")
	srv, err := Serve(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return r, srv, c
}

func TestTCPRecoveringIdentitySurvives(t *testing.T) {
	r, _, c := newServerClient(t)
	r.SetRecovering(true)
	if _, err := c.Lookup(ctx, 1, keyspace.New("k")); !errors.Is(err, rep.ErrRecovering) {
		t.Fatalf("lookup against a recovering rep = %v; want ErrRecovering so the suite routes around it", err)
	}
	r.SetRecovering(false)
	if _, err := c.Lookup(ctx, 2, keyspace.New("k")); err != nil {
		t.Fatalf("lookup after recovery = %v", err)
	}
}

func TestTCPFullOperationSurface(t *testing.T) {
	_, _, c := newServerClient(t)
	if c.Name() != "netrep" {
		t.Errorf("client name = %q", c.Name())
	}

	if err := c.Insert(ctx, 1, keyspace.New("b"), 1, "vb"); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(ctx, 1, keyspace.New("d"), 1, "vd"); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare(rep.MarkWriters(ctx, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx, 1); err != nil {
		t.Fatal(err)
	}

	res, err := c.Lookup(ctx, 2, keyspace.New("b"))
	if err != nil || !res.Found || res.Value != "vb" || res.Version != 1 {
		t.Fatalf("lookup = %+v, %v", res, err)
	}
	miss, err := c.Lookup(ctx, 2, keyspace.New("c"))
	if err != nil || miss.Found || miss.Version != 0 {
		t.Fatalf("gap lookup = %+v, %v", miss, err)
	}
	nb, err := c.Predecessor(ctx, 2, keyspace.New("d"))
	if err != nil || !nb.Key.Equal(keyspace.New("b")) {
		t.Fatalf("predecessor = %+v, %v", nb, err)
	}
	nb, err = c.Successor(ctx, 2, keyspace.New("b"))
	if err != nil || !nb.Key.Equal(keyspace.New("d")) {
		t.Fatalf("successor = %+v, %v", nb, err)
	}
	cres, err := c.Coalesce(ctx, 2, keyspace.New("b"), keyspace.New("d"), 7)
	if err != nil || len(cres.DeletedKeys) != 0 {
		t.Fatalf("coalesce = %+v, %v", cres, err)
	}
	if err := c.Abort(ctx, 2); err != nil {
		t.Fatal(err)
	}
}

func TestTCPSentinelKeysSurvive(t *testing.T) {
	_, _, c := newServerClient(t)
	res, err := c.Lookup(ctx, 1, keyspace.Low())
	if err != nil || !res.Found {
		t.Fatalf("LOW over TCP = %+v, %v", res, err)
	}
	nb, err := c.Successor(ctx, 1, keyspace.Low())
	if err != nil || !nb.Key.IsHigh() {
		t.Fatalf("Successor(LOW) over TCP = %+v, %v", nb, err)
	}
	c.Abort(ctx, 1)
}

func TestTCPErrorIdentity(t *testing.T) {
	_, _, c := newServerClient(t)
	if err := c.Insert(ctx, 1, keyspace.Low(), 1, "x"); !errors.Is(err, rep.ErrSentinel) {
		t.Errorf("sentinel insert over TCP = %v", err)
	}
	if _, err := c.Coalesce(ctx, 1, keyspace.New("x"), keyspace.New("y"), 1); !errors.Is(err, rep.ErrMissingBound) {
		t.Errorf("missing bound over TCP = %v", err)
	}
	c.Abort(ctx, 1)
	// Wait-die: txn 10 holds a modify lock, younger txn 20 must die.
	if err := c.Insert(ctx, 10, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(ctx, 20, keyspace.New("k"), 1, "v"); !errors.Is(err, lock.ErrDie) {
		t.Errorf("wait-die over TCP = %v", err)
	}
	c.Abort(ctx, 20)
	c.Abort(ctx, 10)
	// Transaction 0 is the log's own; a member refuses calls under it.
	if _, err := c.Lookup(ctx, 0, keyspace.New("k")); !errors.Is(err, rep.ErrReservedTxn) {
		t.Errorf("lookup under transaction 0 over TCP = %v, want ErrReservedTxn", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	_, _, _ = ctx, 0, 0
	r := rep.New("shared")
	srv, err := Serve(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				id := lock.TxnID(1000*i + j + 1)
				key := keyspace.New(fmt.Sprintf("c%d-k%d", i, j))
				if err := c.Insert(ctx, id, key, 1, "v"); err != nil {
					errs <- err
					return
				}
				if err := c.Commit(ctx, id); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := r.Len(); got != 2+clients*20 {
		t.Errorf("rep has %d entries, want %d", got, 2+clients*20)
	}
}

func TestDialFailureIsUnavailable(t *testing.T) {
	_, err := Dial("127.0.0.1:1") // nothing listens there
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("dial failure = %v, want ErrUnavailable", err)
	}
}

func TestClientSurvivesServerRestart(t *testing.T) {
	r := rep.New("bounce")
	srv, err := Serve(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lookup(ctx, 1, keyspace.New("k")); err != nil {
		t.Fatal(err)
	}
	c.Abort(ctx, 1)
	srv.Close()
	// Calls fail while down...
	if _, err := c.Lookup(ctx, 2, keyspace.New("k")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("call to closed server = %v", err)
	}
	// ...and succeed again after the server returns on the same address.
	srv2, err := Serve(r, addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if _, err := c.Lookup(ctx, 3, keyspace.New("k")); err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
	c.Abort(ctx, 3)
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve(rep.New("x"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
