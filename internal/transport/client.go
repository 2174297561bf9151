package transport

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// handshakeTimeout bounds the preamble exchange after a dial, so a
// server that accepts but never answers cannot hang the caller beyond
// its context.
const handshakeTimeout = 10 * time.Second

// Redial backoff bounds: the first redial after a failed dial waits on
// the order of redialBase, doubling per consecutive failure up to
// redialMax. Each delay is jittered to [1/2, 1) of its nominal value so
// a fleet of clients that lost the same server redials spread out
// instead of in lockstep (every client hammering the recovering server
// at the same instants, losing together, and staying synchronized —
// the classic retry-storm resonance).
const (
	redialBase = 10 * time.Millisecond
	redialMax  = time.Second
)

// pendingCall is everything one exchange needs on the client, in one
// pooled object: the request as sent, the slot the demux loop fills with
// the reply or the connection's failure, and the channel that says it
// did. Only the goroutine that received from ready puts a pendingCall
// back in the pool: a call abandoned or failed at send may still be
// known to the demux loop or to fail, which would write into whatever
// call reused it, so those go to the garbage collector instead.
type pendingCall struct {
	req   request
	resp  response
	err   error
	ready chan struct{}
}

var pendingCallPool = sync.Pool{
	New: func() any { return &pendingCall{ready: make(chan struct{}, 1)} },
}

// clientConn is one live multiplexed connection: requests group-commit
// through a frameWriter, an in-flight table maps request IDs to the calls
// awaiting their responses, and a single reader goroutine (readLoop)
// demultiplexes responses by ID.
type clientConn struct {
	conn net.Conn
	fw   *frameWriter

	imu      sync.Mutex
	inflight map[uint64]*pendingCall
	broken   bool
}

// newClientConn wraps a connection that has passed the handshake. A
// failed write tears it down and fails its in-flight calls.
func newClientConn(conn net.Conn, addr string, stats *WireStats) *clientConn {
	cc := &clientConn{conn: conn, inflight: make(map[uint64]*pendingCall)}
	cc.fw = newFrameWriter(conn, stats, func(err error) {
		cc.fail(fmt.Errorf("%w: send to %s: %v", ErrUnavailable, addr, err))
	})
	return cc
}

// register claims the call's ID slot; it fails if the connection
// already broke.
func (cc *clientConn) register(pc *pendingCall) bool {
	cc.imu.Lock()
	defer cc.imu.Unlock()
	if cc.broken {
		return false
	}
	cc.inflight[pc.req.ID] = pc
	return true
}

// unregister abandons a call (context cancelled); a late response for
// the ID is discarded by the demux loop.
func (cc *clientConn) unregister(id uint64) {
	cc.imu.Lock()
	delete(cc.inflight, id)
	cc.imu.Unlock()
}

// complete routes one response to its waiting caller.
func (cc *clientConn) complete(resp *response) {
	cc.imu.Lock()
	pc := cc.inflight[resp.ID]
	delete(cc.inflight, resp.ID)
	cc.imu.Unlock()
	if pc != nil {
		pc.resp = *resp
		pc.ready <- struct{}{}
	}
}

// fail marks the connection broken, closes it, and fails every in-flight
// call with err. Idempotent.
func (cc *clientConn) fail(err error) {
	cc.imu.Lock()
	if cc.broken {
		cc.imu.Unlock()
		return
	}
	cc.broken = true
	pending := cc.inflight
	cc.inflight = nil
	cc.imu.Unlock()
	cc.conn.Close()
	for _, pc := range pending {
		pc.err = err
		pc.ready <- struct{}{}
	}
}

// isBroken reports whether fail has run.
func (cc *clientConn) isBroken() bool {
	cc.imu.Lock()
	defer cc.imu.Unlock()
	return cc.broken
}

// readLoop reads response frames, decoding every message in each and
// handing it to its caller, until the connection dies; then it fails
// whatever is still in flight.
func (cc *clientConn) readLoop(addr string) {
	br := bufio.NewReaderSize(cc.conn, 64<<10)
	var (
		buf  []byte
		resp response
	)
	for {
		var err error
		if buf, err = readFrame(br, buf); err != nil {
			cc.fail(fmt.Errorf("%w: receive from %s: %v", ErrUnavailable, addr, err))
			return
		}
		r := wireReader{buf: buf}
		msgs := 0
		for r.remaining() > 0 {
			if err := r.readResponse(&resp); err != nil {
				cc.fail(fmt.Errorf("%w: receive from %s: %v", ErrUnavailable, addr, err))
				return
			}
			msgs++
			cc.complete(&resp)
		}
		cc.fw.stats.noteRecv(len(buf), msgs)
	}
}

// Client is a multiplexed TCP connection to a remote representative. It
// implements rep.Directory and is safe for concurrent use: any number of
// goroutines may have calls outstanding on the one connection at once.
// Requests carry IDs; a single reader goroutine demultiplexes responses
// to their callers, so a slow call never blocks an unrelated one. Each
// call honors its own context (deadline or cancellation) independently —
// an abandoned call's late response is simply discarded. A broken
// connection fails all in-flight calls with ErrUnavailable and is
// redialed on the next call, with exponential backoff between failed
// dial attempts.
type Client struct {
	addr   string
	nextID atomic.Uint64
	stats  WireStats

	mu       sync.Mutex
	cc       *clientConn
	dialing  chan struct{}
	nextDial time.Time
	wait     time.Duration
	name     string
	// rng jitters redial backoff (guarded by mu; seeded from the clock at
	// first use — distinct seeds are the whole point of the jitter).
	rng *rand.Rand
}

var _ rep.Directory = (*Client)(nil)

// Dial connects to a representative server and fetches its name.
func Dial(addr string) (*Client, error) {
	c := &Client{addr: addr}
	resp, err := c.call(context.Background(), request{Op: opName})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.name = resp.Name
	c.mu.Unlock()
	return c, nil
}

// WireStats returns the client's frame traffic counters, accumulated
// across redials.
func (c *Client) WireStats() *WireStats { return &c.stats }

// Close drops the connection, failing any in-flight calls with
// ErrUnavailable. The client remains usable: the next call redials.
func (c *Client) Close() error {
	c.mu.Lock()
	cc := c.cc
	c.cc = nil
	c.nextDial = time.Time{}
	c.wait = 0
	c.mu.Unlock()
	if cc != nil {
		cc.fail(fmt.Errorf("%w: %s: client closed", ErrUnavailable, c.addr))
	}
	return nil
}

// advanceBackoff steps the exponential redial backoff and returns the
// jittered delay to wait before the next dial attempt: uniform in
// [wait/2, wait). Called with c.mu held.
func (c *Client) advanceBackoff() time.Duration {
	if c.wait == 0 {
		c.wait = redialBase
	} else if c.wait < redialMax {
		c.wait *= 2
		if c.wait > redialMax {
			c.wait = redialMax
		}
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	half := c.wait / 2
	return half + time.Duration(c.rng.Int63n(int64(half)))
}

// dropConn forgets cc if it is still the current connection, so the next
// call dials afresh.
func (c *Client) dropConn(cc *clientConn) {
	c.mu.Lock()
	if c.cc == cc {
		c.cc = nil
	}
	c.mu.Unlock()
}

// dial connects, offers the preamble and waits for its echo, within the
// handshake timeout or the caller's deadline, whichever is sooner. There
// is nothing to negotiate: a peer that answers anything else, or
// nothing, is not one this build can talk to.
func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(handshakeTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = conn.SetDeadline(deadline) // a conn that cannot time out still fails on close
	var reply [2]byte
	if _, err = conn.Write(preamble[:]); err == nil {
		_, err = io.ReadFull(conn, reply[:])
	}
	if err == nil && reply != preamble {
		err = fmt.Errorf("%w: handshake answered % x, want % x", errWire, reply, preamble)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// ensureConn returns a live connection, dialing when needed. Exactly one
// goroutine dials at a time; the others wait for its outcome (or their
// context). Consecutive dial failures back off exponentially, and a call
// arriving inside the backoff window waits it out (respecting ctx)
// rather than hammering the address.
func (c *Client) ensureConn(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	for {
		if c.cc != nil && !c.cc.isBroken() {
			cc := c.cc
			c.mu.Unlock()
			return cc, nil
		}
		c.cc = nil
		if c.dialing != nil {
			done := c.dialing
			c.mu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			c.mu.Lock()
			continue
		}
		if wait := time.Until(c.nextDial); wait > 0 {
			c.mu.Unlock()
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
			t.Stop()
			c.mu.Lock()
			continue
		}
		c.dialing = make(chan struct{})
		c.mu.Unlock()
		conn, err := c.dial(ctx)
		c.mu.Lock()
		close(c.dialing)
		c.dialing = nil
		if err != nil {
			c.nextDial = time.Now().Add(c.advanceBackoff())
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: dial %s: %v", ErrUnavailable, c.addr, err)
		}
		c.wait = 0
		c.nextDial = time.Time{}
		cc := newClientConn(conn, c.addr, &c.stats)
		c.cc = cc
		go func() {
			cc.readLoop(c.addr)
			c.dropConn(cc)
		}()
		c.mu.Unlock()
		return cc, nil
	}
}

// call performs one request/response exchange on the multiplexed
// connection. Many calls may be outstanding at once; each waits only for
// its own response or its own context.
func (c *Client) call(ctx context.Context, req request) (response, error) {
	// Carry the caller's configuration epoch across the wire so the
	// remote representative can fence stale epochs, those of its call
	// marks that this op takes, and the writer count of a prepare.
	req.Epoch = rep.EpochFromContext(ctx)
	req.Marks = rep.MarksFrom(ctx) & req.Op.marks()
	if req.Op.prepares(req.Marks) {
		req.Writers = uint64(rep.WritersFrom(ctx))
	}
	pc := pendingCallPool.Get().(*pendingCall)
	pc.req = req
	for attempt := 0; ; attempt++ {
		cc, err := c.ensureConn(ctx)
		if err != nil {
			return response{}, err
		}
		// Propagate the remaining deadline budget (µs) so the server can
		// fast-reject work this caller will no longer wait for. Stamped
		// per attempt: a redial consumed part of the budget.
		if d, ok := ctx.Deadline(); ok {
			rem := time.Until(d)
			if rem <= 0 {
				return response{}, context.DeadlineExceeded
			}
			pc.req.Deadline = max(1, uint64(rem/time.Microsecond))
		}
		pc.req.ID = c.nextID.Add(1)
		if !cc.register(pc) {
			// The connection broke between ensureConn and register;
			// retry once on a fresh dial, then give up.
			c.dropConn(cc)
			if attempt == 0 {
				continue
			}
			return response{}, fmt.Errorf("%w: %s: connection reset", ErrUnavailable, c.addr)
		}
		if err := cc.fw.enqueue(outMsg{req: &pc.req}); err != nil {
			cc.unregister(pc.req.ID)
			// The frameWriter has torn the connection down, unless the
			// failure was local to this one message.
			if cc.isBroken() {
				c.dropConn(cc)
			}
			return response{}, fmt.Errorf("%w: send to %s: %v", ErrUnavailable, c.addr, err)
		}
		select {
		case <-pc.ready:
			resp, err := pc.resp, pc.err
			*pc = pendingCall{ready: pc.ready} // the pool must not keep the call's strings alive
			pendingCallPool.Put(pc)
			if err != nil {
				return response{}, err
			}
			if err = decodeError(resp.Code, resp.Msg); err != nil {
				// The server acts on the deadline it was sent, so its
				// refusal (ErrExpired, or its handler's own context
				// error) races this caller's timer. A caller whose
				// context is done sees that, whoever noticed first.
				if done := callerDone(ctx); done != nil {
					err = fmt.Errorf("%w: %w", done, err)
				}
			}
			return resp, err
		case <-ctx.Done():
			cc.unregister(pc.req.ID)
			return response{}, ctx.Err()
		}
	}
}

// callerDone returns the context's error if the caller has given up or
// its deadline has passed — by the clock: the server's timer for the
// same instant may fire, and its reply arrive, before the context's own.
func callerDone(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// Name implements rep.Directory.
func (c *Client) Name() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.name != "" {
		return c.name
	}
	return c.addr
}

// Lookup implements rep.Directory.
func (c *Client) Lookup(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	resp, err := c.call(ctx, request{Op: opLookup, Txn: uint64(txn), Key: key})
	if err != nil {
		return rep.LookupResult{}, err
	}
	return rep.LookupResult{Found: resp.Found, Version: resp.Version, Value: resp.Value}, nil
}

// Predecessor implements rep.Directory.
func (c *Client) Predecessor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	return c.neighbor(ctx, opPredecessor, txn, key)
}

// Successor implements rep.Directory.
func (c *Client) Successor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	return c.neighbor(ctx, opSuccessor, txn, key)
}

func (c *Client) neighbor(ctx context.Context, o op, txn lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	resp, err := c.call(ctx, request{Op: o, Txn: uint64(txn), Key: key})
	if err != nil {
		return rep.NeighborResult{}, err
	}
	return rep.NeighborResult{Key: resp.Key, Version: resp.Version, Value: resp.Value, GapVersion: resp.GapVersion}, nil
}

// PredecessorBatch implements rep.Directory.
func (c *Client) PredecessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	resp, err := c.call(ctx, request{Op: opPredecessorBatch, Txn: uint64(txn), Key: key, Count: max})
	if err != nil {
		return nil, err
	}
	return resp.Neighbors, nil
}

// SuccessorBatch implements rep.Directory.
func (c *Client) SuccessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	resp, err := c.call(ctx, request{Op: opSuccessorBatch, Txn: uint64(txn), Key: key, Count: max})
	if err != nil {
		return nil, err
	}
	return resp.Neighbors, nil
}

// Insert implements rep.Directory.
func (c *Client) Insert(ctx context.Context, txn lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	_, err := c.call(ctx, request{Op: opInsert, Txn: uint64(txn), Key: key, Version: ver, Value: value})
	return err
}

// Coalesce implements rep.Directory.
func (c *Client) Coalesce(ctx context.Context, txn lock.TxnID, lo, hi keyspace.Key, ver version.V) (rep.CoalesceResult, error) {
	resp, err := c.call(ctx, request{Op: opCoalesce, Txn: uint64(txn), Key: lo, Hi: hi, Version: ver})
	if err != nil {
		return rep.CoalesceResult{}, err
	}
	return rep.CoalesceResult{DeletedKeys: resp.DeletedKeys}, nil
}

// Prepare implements rep.Directory.
func (c *Client) Prepare(ctx context.Context, txn lock.TxnID) error {
	_, err := c.call(ctx, request{Op: opPrepare, Txn: uint64(txn)})
	return err
}

// Commit implements rep.Directory.
func (c *Client) Commit(ctx context.Context, txn lock.TxnID) error {
	_, err := c.call(ctx, request{Op: opCommit, Txn: uint64(txn)})
	return err
}

// Abort implements rep.Directory.
func (c *Client) Abort(ctx context.Context, txn lock.TxnID) error {
	_, err := c.call(ctx, request{Op: opAbort, Txn: uint64(txn)})
	return err
}

// Status implements rep.Directory.
func (c *Client) Status(ctx context.Context, txn lock.TxnID) (rep.TxnStatus, error) {
	resp, err := c.call(ctx, request{Op: opStatus, Txn: uint64(txn)})
	if err != nil {
		return 0, err
	}
	return resp.TxnStatus, nil
}
