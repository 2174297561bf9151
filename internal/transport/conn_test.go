package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// fakePeer accepts connections on a loopback port, reads the two
// preamble bytes of each and answers with reply (nothing, if nil), then
// holds the connection open until the test ends.
func fakePeer(t *testing.T, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop); ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var pre [2]byte
				if _, err := io.ReadFull(conn, pre[:]); err == nil {
					conn.Write(reply)
				}
				<-stop
			}()
		}
	}()
	return ln.Addr().String()
}

// TestPreambleMismatchRefused: there is one protocol and nothing to
// negotiate. A peer that answers the handshake with another version, with
// a wrong first byte, or not at all fails the dial with ErrUnavailable
// inside the handshake timeout; a server offered another version or a
// wrong first byte closes that connection and keeps serving the others.
func TestPreambleMismatchRefused(t *testing.T) {
	for name, reply := range map[string][]byte{
		"version_3":        {0x00, 3},
		"wrong_first_byte": {0x01, wireVersion},
	} {
		t.Run("peer_"+name, func(t *testing.T) {
			start := time.Now()
			if _, err := Dial(fakePeer(t, reply)); !errors.Is(err, ErrUnavailable) {
				t.Errorf("Dial = %v, want ErrUnavailable", err)
			}
			if took := time.Since(start); took > handshakeTimeout/2 {
				t.Errorf("Dial took %v to refuse an answer it had in hand", took)
			}
		})
	}
	t.Run("peer_silent", func(t *testing.T) {
		// What Dial does, under a deadline short enough for a test: the
		// handshake gives up at the sooner of the two.
		c := &Client{addr: fakePeer(t, nil)}
		short, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
		defer cancel()
		start := time.Now()
		if _, err := c.call(short, request{Op: opName}); !errors.Is(err, ErrUnavailable) {
			t.Errorf("call = %v, want ErrUnavailable", err)
		}
		if took := time.Since(start); took > handshakeTimeout/2 {
			t.Errorf("the handshake waited %v for a silent peer under a 200ms deadline", took)
		}
	})

	srv, err := Serve(rep.New("strict"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	good, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	for name, offer := range map[string][]byte{
		"version_3":        {0x00, 3},
		"version_4":        {0x00, 4},
		"version_6":        {0x00, 6},
		"wrong_first_byte": {0x01, wireVersion},
	} {
		t.Run("server_offered_"+name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(offer); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 2)); err != io.EOF {
				t.Errorf("server answered %d bytes, %v; want the connection closed", n, err)
			}
			if _, err := good.Status(ctx, 1); err != nil {
				t.Errorf("the server stopped serving its other connection: %v", err)
			}
		})
	}
}

// TestLocalTCPEquivalence drives the same operation sequence through the
// in-process Local transport and a TCP client on each protocol, and
// requires identical results — the codecs must be semantically invisible.
func TestLocalTCPEquivalence(t *testing.T) {
	type outcome struct {
		desc string
		val  any
		err  error
	}
	drive := func(d rep.Directory) []outcome {
		var out []outcome
		add := func(desc string, val any, err error) {
			// Compare error identities, not message spellings: remote
			// errors carry an addr suffix by design.
			for _, sentinel := range []error{rep.ErrSentinel, rep.ErrMissingBound, rep.ErrBadRange,
				rep.ErrNoNeighbor, rep.ErrTxnDecided, rep.ErrUnknownTxn} {
				if errors.Is(err, sentinel) {
					out = append(out, outcome{desc, val, sentinel})
					return
				}
			}
			out = append(out, outcome{desc, val, err})
		}
		ins := func(txn lock.TxnID, k string, ver version.V, v string) {
			add("insert "+k, nil, d.Insert(ctx, txn, keyspace.New(k), ver, v))
		}
		ins(1, "b", 1, "bv")
		ins(1, "d", 1, "dv")
		ins(1, "f", 1, "fv")
		add("commit 1", nil, d.Commit(ctx, 1))
		lr, err := d.Lookup(ctx, 2, keyspace.New("d"))
		add("lookup d", lr, err)
		lr, err = d.Lookup(ctx, 2, keyspace.New("nope"))
		add("lookup nope", lr, err)
		nr, err := d.Predecessor(ctx, 2, keyspace.New("d"))
		add("pred d", nr, err)
		nr, err = d.Successor(ctx, 2, keyspace.New("d"))
		add("succ d", nr, err)
		ns, err := d.SuccessorBatch(ctx, 2, keyspace.Low(), 10)
		add("succ batch", ns, err)
		ns, err = d.PredecessorBatch(ctx, 2, keyspace.High(), 2)
		add("pred batch", ns, err)
		st, err := d.Status(ctx, 2)
		add("status", st, err)
		add("abort 2", nil, d.Abort(ctx, 2))
		cr, err := d.Coalesce(ctx, 3, keyspace.New("a"), keyspace.New("e"), 2)
		add("coalesce", cr, err)
		add("commit 3", nil, d.Commit(ctx, 3))
		// Error paths must map identically over the wire.
		add("insert low", nil, d.Insert(ctx, 4, keyspace.Low(), 9, "x"))
		_, err = d.Coalesce(ctx, 4, keyspace.New("z"), keyspace.New("a"), 9)
		add("coalesce bad range", nil, err)
		add("abort 4", nil, d.Abort(ctx, 4))
		return out
	}

	want := drive(NewLocal(rep.New("ref")))
	srv, err := Serve(rep.New("ref"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := drive(c)
	if len(got) != len(want) {
		t.Fatalf("outcome count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].desc != want[i].desc || !reflect.DeepEqual(got[i].val, want[i].val) || !errors.Is(got[i].err, want[i].err) || (got[i].err == nil) != (want[i].err == nil) {
			t.Errorf("step %q over TCP:\n got  (%+v, %v)\n want (%+v, %v)",
				want[i].desc, got[i].val, got[i].err, want[i].val, want[i].err)
		}
	}
}

// flakyConn wraps a net.Conn so tests can inject a write failure at an
// arbitrary moment mid-stream.
type flakyConn struct {
	net.Conn
	failWrites atomic.Bool
}

func (f *flakyConn) Write(p []byte) (int, error) {
	if f.failWrites.Load() {
		return 0, errors.New("injected write failure")
	}
	return f.Conn.Write(p)
}

// TestWritePoisonFastFailBinary is the regression test for the old
// write-poisoning failure mode: a failed send on the shared connection
// must tear it down and fast-fail every in-flight call, rather than
// leaving callers hung on a stream nobody will ever write again.
func TestWritePoisonFastFailBinary(t *testing.T) {
	cli, srvSide := net.Pipe()
	defer srvSide.Close()
	go io.Copy(io.Discard, srvSide) // absorb sends; never respond

	fc := &flakyConn{Conn: cli}
	c := &Client{addr: "injected"}
	cc := newClientConn(fc, c.addr, &c.stats)
	c.mu.Lock()
	c.cc = cc
	c.mu.Unlock()
	go cc.readLoop(c.addr)

	// Park calls in flight: their sends succeed, and they wait on
	// responses that will never come.
	const parked = 3
	errs := make(chan error, parked+1)
	for i := 0; i < parked; i++ {
		go func(i int) {
			errs <- c.Prepare(ctx, lock.TxnID(i+1))
		}(i)
	}
	time.Sleep(50 * time.Millisecond)

	// Now poison the stream mid-connection and issue one more call.
	fc.failWrites.Store(true)
	go func() { errs <- c.Prepare(ctx, 99) }()

	deadline := time.After(5 * time.Second)
	for i := 0; i < parked+1; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrUnavailable) {
				t.Errorf("call %d = %v, want ErrUnavailable", i, err)
			}
		case <-deadline:
			t.Fatalf("only %d of %d calls returned after a poisoned write; the rest are hung", i, parked+1)
		}
	}
	if !cc.isBroken() {
		t.Error("connection not torn down after write failure")
	}
}

// TestServerWriteFailureFailsClientFast covers the server half of the
// write-poisoning fix end to end: when the server cannot write a
// response (here: the client's receive direction is shut down), it must
// close the connection so the client's other in-flight calls fail fast
// instead of waiting out the 30s call timeout.
func TestServerWriteFailureFailsClientFast(t *testing.T) {
	dir := slowDir{Directory: rep.New("wfail"), delay: 200 * time.Millisecond}
	srv, err := Serve(dir, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One slow call in flight, then kill the socket out from under the
	// server's pending response write.
	done := make(chan error, 1)
	go func() {
		_, err := c.Lookup(ctx, 1, keyspace.New("slow"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	breakConn(t, c)
	select {
	case err := <-done:
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("in-flight call = %v, want ErrUnavailable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after server-side write failure")
	}
}

// gatedWriter holds every Write until its gate is closed, announcing
// the first on entered, so a test can park a flush leader mid-write and
// know it is parked.
type gatedWriter struct {
	io.Writer
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.Writer.Write(p)
}

// TestFrameWriterBatches checks group commit: messages enqueued while
// the flush leader is inside a write ride out together in its next
// frame, and what reaches the wire decodes to every message in order.
func TestFrameWriterBatches(t *testing.T) {
	var out bytes.Buffer
	var stats WireStats
	w := &gatedWriter{Writer: &out, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	fw := newFrameWriter(w, &stats, func(err error) { t.Errorf("frame writer failed: %v", err) })

	const queued = 40
	send := func(id uint64) {
		if err := fw.enqueue(outMsg{req: &request{ID: id, Op: opPrepare, Txn: id}}); err != nil {
			t.Error(err)
		}
	}
	led := make(chan struct{})
	go func() { defer close(led); send(1) }()
	<-w.entered // the leader is writing frame one
	for id := uint64(2); id <= queued+1; id++ {
		send(id) // returns at once: the leader will carry it
	}
	close(w.gate)
	<-led

	if sent := stats.Sent(); sent.Frames != 2 || sent.Msgs != queued+1 {
		t.Errorf("sent %d messages in %d frames, want %d in 2", sent.Msgs, sent.Frames, queued+1)
	}
	br := bufio.NewReader(&out)
	next := uint64(1)
	for _, want := range []int{1, queued} {
		frame, err := readFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := wireReader{buf: frame}
		n := 0
		for ; r.remaining() > 0; n++ {
			var req request
			if err := r.readRequest(&req); err != nil || req.ID != next {
				t.Fatalf("message %d: %+v, %v", next, req, err)
			}
			next++
		}
		if n != want {
			t.Errorf("frame of %d messages, want %d", n, want)
		}
	}
}
