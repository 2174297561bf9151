package transport

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
)

// TestFrameWriterAllocs pins the send path's steady state: encoding a
// lookup request into the writer's own buffer, prefixing it and handing
// the frame to the connection allocates nothing.
func TestFrameWriterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	var stats WireStats
	fw := newFrameWriter(io.Discard, &stats, func(err error) { t.Errorf("frame writer failed: %v", err) })
	req := request{ID: 42, Op: opLookup, Txn: 1 << 40, Deadline: 250_000, Marks: rep.OneShotMark, Key: keyspace.New("k0000042")}
	send := func() {
		req.ID++
		if err := fw.enqueue(outMsg{req: &req}); err != nil {
			t.Fatal(err)
		}
	}
	send()
	send() // both buffers have been pending once
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Errorf("enqueue + flush of a lookup request allocates %.0f times, want 0", n)
	}
	if sent := stats.Sent(); sent.Frames != sent.Msgs || sent.Msgs < 200 {
		t.Errorf("sent %d messages in %d frames, want one frame each", sent.Msgs, sent.Frames)
	}
}

// TestLocalCallAllocs pins the in-process transport at no cost of its
// own: Lookup and Insert through Local allocate exactly what the same
// calls on the representative do. The Middleware only calls each call's
// closure, so the closure stays on the caller's stack.
func TestLocalCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const keys = 1024
	ks := make([]keyspace.Key, keys)
	for i := range ks {
		ks[i] = keyspace.New(fmt.Sprintf("k%06d", i))
	}
	oneShot := rep.MarkOneShot(ctx)
	// measure runs the same insert-then-lookup sequence against a fresh
	// representative, calling it through wrap.
	measure := func(wrap func(*rep.Rep) rep.Directory) (insert, lookup float64) {
		r := rep.New("allocs")
		d := wrap(r)
		id, i := lock.TxnID(1), 0
		insert = testing.AllocsPerRun(keys-1, func() {
			id++
			i++
			if err := d.Insert(ctx, id, ks[i%keys], 1, "v"); err != nil {
				t.Fatal(err)
			}
			if err := r.Commit(ctx, id); err != nil {
				t.Fatal(err)
			}
		})
		lookup = testing.AllocsPerRun(1000, func() {
			id++
			i++
			if res, err := d.Lookup(oneShot, id, ks[i%keys]); err != nil || !res.Found {
				t.Fatalf("Lookup = %+v, %v", res, err)
			}
		})
		return insert, lookup
	}
	repIns, repLook := measure(func(r *rep.Rep) rep.Directory { return r })
	locIns, locLook := measure(func(r *rep.Rep) rep.Directory { return NewLocal(r) })
	if locIns != repIns || locLook != repLook {
		t.Errorf("through Local, Insert + Commit allocates %.0f times and a one-shot Lookup %.0f; on the representative %.0f and %.0f",
			locIns, locLook, repIns, repLook)
	} else {
		t.Logf("Insert + Commit: %.0f allocations, one-shot Lookup: %.0f, through Local and direct alike", locIns, locLook)
	}
}

// markedDir is the least a served directory can be and still use what
// the request context carries: it reads the one-shot mark and the
// deadline, and answers from a constant.
type markedDir struct {
	rep.Directory
	t *testing.T
}

func (d markedDir) Lookup(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	if _, ok := ctx.Deadline(); !ok || !rep.OneShot(ctx) || ctx.Err() != nil {
		d.t.Error("request context lost its deadline or its mark")
	}
	return rep.LookupResult{Found: true, Version: 7, Value: "payload-value"}, nil
}

// callRoundTripAllocs is the ceiling TestCallRoundTripAllocs holds one
// Lookup to, client and server together. Three are the call's own: the
// key becomes a string where the server decodes it, the value where the
// client does, and the server makes one context object. The fourth is
// slack for a pool emptied by a collection mid-run. Before the pooled
// call struct, the owned frame buffers and the lazy context, the same
// call cost 18.
const callRoundTripAllocs = 4

// TestCallRoundTripAllocs pins what one call costs end to end over
// loopback: a Lookup with a context deadline and the one-shot mark,
// client and server in this process.
func TestCallRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	srv, err := Serve(markedDir{Directory: rep.New("allocs"), t: t}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cctx, cancel := context.WithTimeout(rep.MarkOneShot(context.Background()), time.Minute)
	defer cancel()
	key := keyspace.New("k0000042")
	lookup := func() {
		res, err := c.Lookup(cctx, 1<<40, key)
		if err != nil || res.Value != "payload-value" {
			t.Fatalf("Lookup = %+v, %v", res, err)
		}
	}
	for i := 0; i < 50; i++ {
		lookup() // pools, maps and buffers reach their working size
	}
	if n := testing.AllocsPerRun(500, lookup); n > callRoundTripAllocs {
		t.Errorf("one Lookup round trip allocates %.0f times, want at most %d", n, callRoundTripAllocs)
	} else {
		t.Logf("one Lookup round trip: %.0f allocations", n)
	}
}

// TestOversizeMessageBehindBatchFailsAlone is the regression test for a
// message over the frame bound that queues behind another: it used to
// be refused only when first in the pending buffer, so queued second it
// went out in a frame the server rejects, and every call on the
// connection failed with it. It must fail alone, and name the bound.
func TestOversizeMessageBehindBatchFailsAlone(t *testing.T) {
	srv, err := Serve(rep.New("oversize"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.mu.Lock()
	conn := c.cc
	c.mu.Unlock()
	// The connection's writes now wait at a gate, so that the flush
	// leader stays in its write while the second call queues behind the
	// first.
	gated := &gatedWriter{Writer: conn.conn, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	conn.fw.w = gated

	first := make(chan error, 1)
	go func() {
		_, err := c.Lookup(ctx, 1, keyspace.New("k"))
		first <- err
	}()
	<-gated.entered
	big := strings.Repeat("x", maxFrameLen+1)
	if err := c.Insert(ctx, 2, keyspace.New("big"), 1, big); err == nil || !strings.Contains(err.Error(), "frame bound") {
		t.Errorf("oversized call = %v, want the frame-bound refusal", err)
	}
	close(gated.gate)
	if err := <-first; err != nil {
		t.Errorf("the call ahead of the oversized one failed: %v", err)
	}

	if conn.isBroken() {
		t.Error("the connection was torn down")
	}
	if _, err := c.Lookup(ctx, 3, keyspace.New("k")); err != nil {
		t.Errorf("call after the oversized one: %v", err)
	}
	c.mu.Lock()
	same := c.cc == conn
	c.mu.Unlock()
	if !same {
		t.Error("the client redialed")
	}
}
