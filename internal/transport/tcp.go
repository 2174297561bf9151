package transport

import (
	"bufio"
	"context"
	"encoding/gob"
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

// op is the wire operation code. The numeric values are the binary
// codec's one-byte message tags (see wire.go) — part of the on-wire
// contract; do not renumber.
type op int

const (
	opLookup op = iota + 1
	opPredecessor
	opSuccessor
	opPredecessorBatch
	opSuccessorBatch
	opInsert
	opCoalesce
	opPrepare
	opCommit
	opAbort
	opStatus
	opName
	// The marked forms of four calls (rep/marks.go): same fields as the
	// plain call, one tag each, so that the mark costs no byte and an
	// older peer refuses it instead of silently running the plain call —
	// which would leave a lock nobody releases, skip a prepare, or
	// answer a delete's read with the successors alone.
	opLookupOnce
	opInsertPrepare
	opCoalescePrepare
	opSuccessorBatchAround
)

// unmarked maps a marked call to the plain one whose layout and handler
// it shares, and every other call to itself.
func (o op) unmarked() op {
	switch o {
	case opLookupOnce:
		return opLookup
	case opInsertPrepare:
		return opInsert
	case opCoalescePrepare:
		return opCoalesce
	case opSuccessorBatchAround:
		return opSuccessorBatch
	}
	return o
}

// Protocol names, as reported by Client.Protocol.
const (
	ProtoBinary = "binary"
	ProtoGob    = "gob"
)

// request is the single wire request shape. ID matches the request to
// its response: the connection is multiplexed, so responses may return
// in any order.
type request struct {
	ID    uint64
	Op    op
	Txn   uint64
	Epoch uint64
	// Deadline is the client's remaining context budget in microseconds
	// at send time (0 = no deadline). Carried by gob and v3-binary
	// peers; the server turns it into a per-request context and
	// fast-rejects work it cannot finish in time.
	Deadline uint64
	Key      keyspace.Key
	Hi       keyspace.Key
	Version  version.V
	Value    string
	Count    int

	// Server-side bookkeeping, never on the wire (gob skips unexported
	// fields; the binary codec is explicit): when the request was
	// decoded, and the absolute deadline its budget implies.
	arrived time.Time
	expires time.Time
}

// response is the single wire response shape. ID echoes the request it
// answers; Op echoes the request op so the binary decoder knows which
// result fields follow (gob carries field names and ignores it).
type response struct {
	ID          uint64
	Op          op
	Code        code
	Msg         string
	Found       bool
	Version     version.V
	Value       string
	Key         keyspace.Key
	GapVersion  version.V
	DeletedKeys []keyspace.Key
	Neighbors   []rep.NeighborResult
	TxnStatus   rep.TxnStatus
	Name        string
}

// DefaultPerConnConcurrency bounds how many requests from one connection
// a server runs at once when WithPerConnConcurrency is not given.
const DefaultPerConnConcurrency = 32

// negotiateTimeout bounds the preamble exchange after a dial, so a
// server that accepts but never answers cannot hang the caller beyond
// its context.
const negotiateTimeout = 10 * time.Second

// ServerOption configures Serve.
type ServerOption func(*Server)

// WithCallTimeout caps how long one request (including its lock waits)
// may run on the server. The default is 30 seconds.
func WithCallTimeout(d time.Duration) ServerOption {
	return func(s *Server) {
		if d > 0 {
			s.callTimeout = d
		}
	}
}

// WithPerConnConcurrency bounds how many requests from one connection
// may be in flight at once on the server. When the bound is reached the
// connection's decode loop stops pulling new frames, applying
// backpressure to the client. n < 1 selects the default.
func WithPerConnConcurrency(n int) ServerOption {
	return func(s *Server) {
		if n >= 1 {
			s.perConn = n
		}
	}
}

// WithAdmission enables CoDel-style overload shedding on the server's
// dispatch path (see admit.go): when the measured queue delay stays
// above target for a full interval, newly arriving requests are
// rejected with ErrOverloaded until the delay recovers — except
// two-phase-commit resolution, which is always served so shedding can
// never wedge an in-flight transaction. Zero durations select
// DefaultAdmitTarget / DefaultAdmitInterval. Enabling admission also
// buffers the per-connection dispatch queue (WithDispatchQueue) so
// queue delay is measurable.
func WithAdmission(target, interval time.Duration) ServerOption {
	return func(s *Server) {
		s.admit.enabled = true
		s.admit.target = DefaultAdmitTarget
		s.admit.interval = DefaultAdmitInterval
		if target > 0 {
			s.admit.target = target
		}
		if interval > 0 {
			s.admit.interval = interval
		}
	}
}

// WithDispatchQueue buffers each connection's dispatch queue with n
// slots beyond the running workers. The default 0 keeps the legacy
// unbuffered handoff (decode blocks whenever all workers are busy);
// admission control defaults it to 16x the per-connection concurrency.
// Under admission the queue's standing delay is bounded by the CoDel
// controller, not by the queue's length, so the queue should be sized
// for the worst arrival burst a client may legitimately multiplex onto
// the connection — a queue that overflows on an honest burst sheds work
// a healthy server could have drained well inside the delay target.
func WithDispatchQueue(n int) ServerOption {
	return func(s *Server) {
		if n >= 0 {
			s.queueDepth = n
			s.queueSet = true
		}
	}
}

// WithGobOnly makes the server behave like a pre-codec build: every
// connection is served with gob and a binary preamble is rejected (the
// gob decoder chokes on it and the connection closes), which is exactly
// what a new client negotiating against an old server experiences. Used
// by the mixed-version tests and available for staged rollbacks.
func WithGobOnly() ServerOption {
	return func(s *Server) { s.gobOnly = true }
}

// Server exposes one representative over TCP. Each connection has one
// decode loop, but every request is dispatched to its own goroutine
// (bounded by the per-connection concurrency limit), so a request stuck
// waiting for a lock does not head-of-line-block later requests on the
// same connection. Responses are matched to requests by ID; on the
// binary protocol they group-commit through a frameWriter, on gob they
// serialize through a per-connection write mutex.
//
// Protocol selection is per connection: a connection whose first byte
// is the binary preamble speaks the binary codec, anything else is
// served with gob (see wire.go for the preamble rationale).
type Server struct {
	dir rep.Directory
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	// callTimeout caps how long one request (including its lock waits)
	// may run on the server.
	callTimeout time.Duration
	// perConn bounds concurrent dispatch per connection.
	perConn int
	// queueDepth buffers the per-connection dispatch queue (0 =
	// unbuffered handoff); queueSet records an explicit option so
	// admission can supply its own default.
	queueDepth int
	queueSet   bool
	// admit is the overload-shedding controller (disabled by default).
	admit admitState
	// gobOnly disables the binary codec (legacy-server mode).
	gobOnly bool
	// stats aggregates binary-codec frame traffic across connections.
	stats WireStats
}

// Serve starts a server for dir on addr (e.g. "127.0.0.1:0"). Close must
// be called to release the listener and connections.
func Serve(dir rep.Directory, addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	s := &Server{
		dir:         dir,
		ln:          ln,
		conns:       make(map[net.Conn]struct{}),
		callTimeout: 30 * time.Second,
		perConn:     DefaultPerConnConcurrency,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.admit.enabled && !s.queueSet {
		s.queueDepth = 16 * s.perConn
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// WireStats returns the server's binary-codec traffic counters. Gob
// connections do not contribute.
func (s *Server) WireStats() *WireStats { return &s.stats }

// AdmissionStats returns the admission controller's counters (all zero
// unless WithAdmission, except Expired, which hard deadline rejection
// feeds regardless).
func (s *Server) AdmissionStats() AdmissionStats { return s.admit.snapshot() }

// Close stops accepting, closes every connection, and waits for handler
// goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn sniffs the protocol from the connection's first byte and
// runs the matching serve loop.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	if !s.gobOnly {
		first, err := br.Peek(1)
		if err != nil {
			return
		}
		if first[0] == preambleByte {
			s.serveConnBinary(conn, br)
			return
		}
	}
	s.serveConnGob(conn, br)
}

// serveConnBinary answers the preamble and then decodes multi-message
// frames, dispatching each request to its own bounded goroutine.
// Responses group-commit through a frameWriter, so replies to a batch
// of concurrent requests coalesce into few frames.
func (s *Server) serveConnBinary(conn net.Conn, br *bufio.Reader) {
	var pre [2]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || pre[1] == 0 {
		return
	}
	ver := pre[1]
	if ver > wireVersion {
		ver = wireVersion
	}
	if _, err := conn.Write([]byte{preambleByte, ver}); err != nil {
		return
	}
	// A failed response write leaves the stream corrupt mid-frame; close
	// the connection so the client's in-flight calls fail fast instead
	// of waiting out their timeouts.
	fw := newFrameWriter(conn, 0, 0, &s.stats, func(error) { conn.Close() })
	reply := func(resp *response) { _ = fw.enqueue(outMsg{resp: resp}) }
	work, stop := s.startWorkers(reply)
	defer stop()
	var buf []byte
	for {
		var err error
		if buf, err = readFrame(br, buf); err != nil {
			return
		}
		r := wireReader{buf: buf}
		msgs := 0
		for r.remaining() > 0 {
			var req request
			if err := r.readRequest(&req, ver); err != nil {
				return
			}
			msgs++
			s.offer(req, work, reply)
		}
		s.stats.noteRecv(len(buf), msgs)
	}
}

// startWorkers starts a connection's worker pool and returns its queue:
// a channel handoff costs a fraction of a goroutine spawn, and when
// every worker is busy (and the queue, if buffered, is full) the decode
// loop blocks, applying backpressure to the client. A worker fills the
// same response for every request, so reply must be done with it on
// return. stop closes the queue and waits out handlers mid-operation, so
// their (failing) writes never race the connection's close.
func (s *Server) startWorkers(reply func(*response)) (work chan request, stop func()) {
	work = make(chan request, s.queueDepth)
	var handlers sync.WaitGroup
	for i := 0; i < s.perConn; i++ {
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			var resp response
			for req := range work {
				s.dispatch(&req, &resp)
				reply(&resp)
			}
		}()
	}
	return work, func() { close(work); handlers.Wait() }
}

// serveConnGob is the legacy per-message gob loop.
func (s *Server) serveConnGob(conn net.Conn, br *bufio.Reader) {
	dec := gob.NewDecoder(br)
	enc := gob.NewEncoder(conn)
	var wmu sync.Mutex
	reply := func(resp *response) {
		wmu.Lock()
		err := enc.Encode(resp)
		wmu.Unlock()
		if err != nil {
			// A failed encode poisons the shared gob stream: every
			// later response would hit a corrupt encoder state and
			// the client would hang until its call timeouts. Close
			// the connection so in-flight calls fail fast.
			conn.Close()
		}
	}
	work, stop := s.startWorkers(reply)
	defer stop()
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			return
		}
		s.offer(req, work, reply)
	}
}

// offer routes one decoded request toward the worker pool. The request
// is stamped with its arrival time and, when it carries a propagated
// deadline budget, the absolute instant that budget expires. Under
// admission-control overload, sheddable requests are refused
// immediately with ErrOverloaded — when the controller has tripped AND
// the queue's expected drain delay exceeds the target (overBacklog), or
// unconditionally when the queue is full (a full queue with the
// controller enabled means sojourn is about to blow far past target
// anyway; rejecting now is strictly kinder than queueing then
// rejecting). Requiring backlog alongside the tripped controller keeps
// shedding proportional: admitted work keeps flowing at the drain rate,
// the queue settles at roughly one target's worth of delay, and a
// below-target pickup can clear the episode — an all-arrivals shed
// would turn every sustained overload into a full outage that only ends
// when the offered load does. Two-phase-commit resolution is never
// shed: it blocks on the queue like the legacy path, so lock-holding
// transactions always drain.
func (s *Server) offer(req request, work chan<- request, reply func(*response)) {
	req.arrived = time.Now()
	if req.Deadline > 0 {
		req.expires = req.arrived.Add(time.Duration(req.Deadline) * time.Microsecond)
	}
	if sheddable(req.Op) && s.admit.enabled {
		if !s.admit.shouldShed() || !s.admit.overBacklog(len(work), s.perConn) {
			select {
			case work <- req:
				return
			default:
			}
		}
		s.admit.shed.Add(1)
		resp := errorResponse(&req, ErrOverloaded)
		reply(&resp)
		return
	}
	work <- req
}

// dispatch is the worker-side half of admission: report the request's
// queue sojourn, refuse work whose propagated deadline has already
// passed (or provably cannot be met given typical service time), and
// otherwise run the handler, feeding its service time back into the
// controller's estimate. The reply is left in *resp.
func (s *Server) dispatch(req *request, resp *response) {
	s.admit.pickup(req.arrived)
	if sheddable(req.Op) && !req.expires.IsZero() {
		if time.Now().After(req.expires) || s.admit.wontFinish(req.expires) {
			s.admit.expired.Add(1)
			*resp = errorResponse(req, ErrExpired)
			return
		}
	}
	start := time.Now()
	s.handle(req, resp)
	s.admit.observeService(time.Since(start))
	s.admit.admitted.Add(1)
}

// errorResponse builds the reply for a request refused before its
// handler ran.
func errorResponse(req *request, err error) response {
	resp := response{ID: req.ID, Op: req.Op}
	resp.Code, resp.Msg = encodeError(err)
	return resp
}

// callCtx is the context a request's handler runs under, one object a
// request. It answers for the request's deadline, for the caller's
// configuration epoch (zero from a v1 or gob peer, which the rep fences
// as a legacy unversioned caller) and for the call mark its op tag
// carries. A handler that never blocks never calls Done, and for it the
// context costs no channel and no timer: the first Done makes both. Err
// goes by the clock, so a handler that only polls still sees its
// deadline pass.
type callCtx struct {
	deadline time.Time
	epoch    uint64
	op       op

	mu    sync.Mutex
	done  chan struct{} // made by the first Done
	timer *time.Timer   // armed by the first Done, if the call is still live
	err   error         // set once: the deadline passed or the handler returned
}

// The representative reads the epoch and the marks by context keys of
// unexported types, which Value must recognize and cannot name. Each
// accessor hands its key to the context it is asked about.
var (
	epochKey   = ctxKeyOf(func(ctx context.Context) { rep.EpochFromContext(ctx) })
	oneShotKey = ctxKeyOf(func(ctx context.Context) { rep.OneShot(ctx) })
	prepareKey = ctxKeyOf(func(ctx context.Context) { rep.PrepareRides(ctx) })
	aroundKey  = ctxKeyOf(func(ctx context.Context) { rep.Around(ctx) })
)

type keyProbe struct {
	context.Context
	key any
}

func (p *keyProbe) Value(key any) any { p.key = key; return nil }

func ctxKeyOf(ask func(context.Context)) any {
	p := &keyProbe{Context: context.Background()}
	ask(p)
	return p.key
}

func (c *callCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *callCtx) Value(key any) any {
	switch {
	case key == epochKey && c.epoch != 0:
		return c.epoch
	case key == oneShotKey && c.op == opLookupOnce,
		key == prepareKey && (c.op == opInsertPrepare || c.op == opCoalescePrepare),
		key == aroundKey && c.op == opSuccessorBatchAround:
		return true
	}
	return nil
}

func (c *callCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.err != nil {
			close(c.done)
		} else {
			c.timer = time.AfterFunc(time.Until(c.deadline), func() { c.settle(context.DeadlineExceeded) })
		}
	}
	return c.done
}

func (c *callCtx) Err() error { return c.settle(nil) }

// settle ends the context with err — or, given nil, with
// DeadlineExceeded once the deadline has passed — unless it has ended
// already, and returns what it ended with: nil while it is live.
func (c *callCtx) settle(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil && !time.Now().Before(c.deadline) {
		err = context.DeadlineExceeded
	}
	if c.err == nil && err != nil {
		c.err = err
		if c.done != nil {
			close(c.done)
		}
		if c.timer != nil {
			c.timer.Stop()
		}
	}
	return c.err
}

// handle runs one request against the representative and leaves the
// reply in *resp. The handler's deadline is the client's own when the
// request carries one — which is what keeps one short-deadline call from
// cancelling a long-deadline sibling on the same connection — capped by
// the server's call timeout, so a client claiming an hour of budget
// cannot pin a worker that long.
func (s *Server) handle(req *request, resp *response) {
	limit := req.arrived.Add(s.callTimeout)
	if !req.expires.IsZero() && req.expires.Before(limit) {
		limit = req.expires
	}
	ctx := &callCtx{deadline: limit, epoch: req.Epoch, op: req.Op}
	defer ctx.settle(context.Canceled)
	*resp = response{ID: req.ID, Op: req.Op}
	txn := lock.TxnID(req.Txn)
	var err error
	switch req.Op.unmarked() {
	case opLookup:
		var r rep.LookupResult
		r, err = s.dir.Lookup(ctx, txn, req.Key)
		resp.Found, resp.Version, resp.Value = r.Found, r.Version, r.Value
	case opPredecessor:
		var r rep.NeighborResult
		r, err = s.dir.Predecessor(ctx, txn, req.Key)
		resp.Key, resp.Version, resp.Value, resp.GapVersion = r.Key, r.Version, r.Value, r.GapVersion
	case opSuccessor:
		var r rep.NeighborResult
		r, err = s.dir.Successor(ctx, txn, req.Key)
		resp.Key, resp.Version, resp.Value, resp.GapVersion = r.Key, r.Version, r.Value, r.GapVersion
	case opPredecessorBatch:
		resp.Neighbors, err = s.dir.PredecessorBatch(ctx, txn, req.Key, req.Count)
	case opSuccessorBatch:
		resp.Neighbors, err = s.dir.SuccessorBatch(ctx, txn, req.Key, req.Count)
	case opInsert:
		err = s.dir.Insert(ctx, txn, req.Key, req.Version, req.Value)
	case opCoalesce:
		var r rep.CoalesceResult
		r, err = s.dir.Coalesce(ctx, txn, req.Key, req.Hi, req.Version)
		resp.DeletedKeys = r.DeletedKeys
	case opPrepare:
		err = s.dir.Prepare(ctx, txn)
	case opCommit:
		err = s.dir.Commit(ctx, txn)
	case opAbort:
		err = s.dir.Abort(ctx, txn)
	case opStatus:
		resp.TxnStatus, err = s.dir.Status(ctx, txn)
	case opName:
		resp.Name = s.dir.Name()
	default:
		err = fmt.Errorf("transport: unknown op %d", req.Op)
	}
	resp.Code, resp.Msg = encodeError(err)
}

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

// clientConn is one live multiplexed connection speaking one protocol:
// binary (requests group-commit through a frameWriter) or gob (a shared
// encoder guarded by a write mutex). Either way, an in-flight table maps
// request IDs to the calls awaiting their responses, and a single reader
// goroutine (readLoop) demultiplexes responses by ID.
type clientConn struct {
	conn  net.Conn
	proto string
	// ver is the negotiated binary codec version (0 on gob).
	ver byte

	// Binary protocol: the group-commit frame writer.
	fw *frameWriter
	// Gob protocol: shared encoder behind a write mutex.
	enc *gob.Encoder
	wmu sync.Mutex

	stats *WireStats

	imu      sync.Mutex
	inflight map[uint64]*pendingCall
	broken   bool
}

func newClientConn(conn net.Conn, proto string, ver byte, addr string, window time.Duration, maxBatch int, stats *WireStats) *clientConn {
	cc := &clientConn{
		conn:     conn,
		proto:    proto,
		ver:      ver,
		stats:    stats,
		inflight: make(map[uint64]*pendingCall),
	}
	if proto == ProtoBinary {
		cc.fw = newFrameWriter(conn, window, maxBatch, stats, func(err error) {
			cc.fail(fmt.Errorf("%w: send to %s: %v", ErrUnavailable, addr, err))
		})
	} else {
		cc.enc = gob.NewEncoder(conn)
	}
	return cc
}

// send writes one request on the connection's protocol. On the binary
// path a write failure tears the connection down via the frameWriter's
// error hook; on gob the caller must do it (a failed encode poisons the
// shared stream either way).
func (cc *clientConn) send(req *request) error {
	if cc.fw != nil {
		return cc.fw.enqueue(outMsg{req: req, ver: cc.ver})
	}
	cc.wmu.Lock()
	err := cc.enc.Encode(req)
	cc.wmu.Unlock()
	return err
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

// readLoop decodes responses and hands each to its caller until the
// connection dies, then fails whatever is still in flight.
func (cc *clientConn) readLoop(addr string) {
	if cc.proto == ProtoBinary {
		cc.readLoopBinary(addr)
		return
	}
	dec := gob.NewDecoder(cc.conn)
	for {
		var resp response
		if err := dec.Decode(&resp); err != nil {
			cc.fail(fmt.Errorf("%w: receive from %s: %v", ErrUnavailable, addr, err))
			return
		}
		cc.complete(&resp)
	}
}

// readLoopBinary reads response frames, decoding and demuxing every
// message in each.
func (cc *clientConn) readLoopBinary(addr string) {
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
		cc.stats.noteRecv(len(buf), msgs)
	}
}

// DialOption configures Dial.
type DialOption func(*Client)

// WithGobProtocol pins the client to the legacy gob codec, skipping the
// binary preamble entirely — what a pre-codec client build does. Used by
// the mixed-version tests and the gob benchmark baselines.
func WithGobProtocol() DialOption {
	return func(c *Client) { c.gobOnly = true }
}

// WithBatchWindow makes the flush leader linger for d after picking up
// a batch, letting more concurrent requests coalesce into the same
// frame at the cost of up to d of added latency. The default (0) adds
// no latency: batching then comes only from requests arriving while a
// write syscall is in flight.
func WithBatchWindow(d time.Duration) DialOption {
	return func(c *Client) {
		if d > 0 {
			c.window = d
		}
	}
}

// WithRedialSeed pins the redial-jitter RNG seed, for deterministic
// simulations and tests. Without it each client seeds from the clock —
// distinct seeds are the whole point of the jitter.
func WithRedialSeed(seed int64) DialOption {
	return func(c *Client) {
		c.rngSeed = seed
		c.seeded = true
	}
}

// WithMaxBatch caps how many requests coalesce into one frame
// (0 = unbounded). WithMaxBatch(1) pins every request to its own frame,
// which is how the unbatched benchmark baseline is measured.
func WithMaxBatch(n int) DialOption {
	return func(c *Client) {
		if n > 0 {
			c.maxBatch = n
		}
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
//
// A new connection offers the binary codec via a one-byte preamble; a
// server that rejects it (a pre-codec build) makes the client downgrade
// to gob, remember the choice, and redial — so mixed-version pairs
// interoperate in both directions (see wire.go).
type Client struct {
	addr   string
	nextID atomic.Uint64

	// window and maxBatch tune the frameWriter; gobOnly pins the legacy
	// codec (set by option, or stickily after a failed negotiation).
	window   time.Duration
	maxBatch int
	stats    WireStats

	mu       sync.Mutex
	gobOnly  bool
	cc       *clientConn
	dialing  chan struct{}
	nextDial time.Time
	wait     time.Duration
	name     string
	// rng jitters redial backoff (guarded by mu; lazily seeded).
	rng     *rand.Rand
	rngSeed int64
	seeded  bool
}

var _ rep.Directory = (*Client)(nil)

// Dial connects to a representative server and fetches its name.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	c := &Client{addr: addr}
	for _, opt := range opts {
		opt(c)
	}
	resp, err := c.call(context.Background(), request{Op: opName})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.name = resp.Name
	c.mu.Unlock()
	return c, nil
}

// Protocol reports the wire codec in use: ProtoBinary or ProtoGob. With
// no live connection it reports what the next dial will offer.
func (c *Client) Protocol() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cc != nil {
		return c.cc.proto
	}
	if c.gobOnly {
		return ProtoGob
	}
	return ProtoBinary
}

// WireStats returns the client's binary-codec traffic counters,
// accumulated across redials. Gob connections do not contribute.
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
		seed := c.rngSeed
		if !c.seeded {
			seed = time.Now().UnixNano()
		}
		c.rng = rand.New(rand.NewSource(seed))
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

// dialAndNegotiate dials and, unless the client is pinned to gob,
// offers the binary codec. A server that answers the preamble gets a
// binary connection; one that closes instead (a pre-codec build whose
// gob decoder choked on the preamble) triggers a sticky downgrade: the
// client remembers gob and redials speaking it. A wrong downgrade — a
// flaky network eating the reply — costs only performance, because
// every new server still serves gob connections.
func (c *Client) dialAndNegotiate(ctx context.Context, useGob bool) (net.Conn, string, byte, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", c.addr)
	if err != nil || useGob {
		return conn, ProtoGob, 0, err
	}
	deadline := time.Now().Add(negotiateTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = conn.SetDeadline(deadline)
	var reply [2]byte
	if _, err := conn.Write([]byte{preambleByte, wireVersion}); err == nil {
		_, err = io.ReadFull(conn, reply[:])
	}
	if err != nil || reply[0] != preambleByte || reply[1] == 0 || reply[1] > wireVersion {
		conn.Close()
		if ctx.Err() != nil {
			return nil, "", 0, ctx.Err()
		}
		c.mu.Lock()
		c.gobOnly = true
		c.mu.Unlock()
		conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", c.addr)
		return conn, ProtoGob, 0, err
	}
	_ = conn.SetDeadline(time.Time{})
	// The server echoed min(our offer, its max): both sides speak that.
	return conn, ProtoBinary, reply[1], nil
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
		useGob := c.gobOnly
		c.mu.Unlock()
		conn, proto, ver, err := c.dialAndNegotiate(ctx, useGob)
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
		cc := newClientConn(conn, proto, ver, c.addr, c.window, c.maxBatch, &c.stats)
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
	// remote representative can fence stale epochs. Gob and v2-binary
	// peers both transmit it; a v1 server simply never sees it (it is
	// an old build with nothing to fence against).
	req.Epoch = rep.EpochFromContext(ctx)
	pc := pendingCallPool.Get().(*pendingCall)
	pc.req = req
	for attempt := 0; ; attempt++ {
		cc, err := c.ensureConn(ctx)
		if err != nil {
			return response{}, err
		}
		// Propagate the remaining deadline budget (µs) so the server can
		// fast-reject work this caller will no longer wait for. Stamped
		// per attempt: a redial consumed part of the budget. Gob and
		// v3-binary peers carry the field; older servers never see it.
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
		if err := cc.send(&pc.req); err != nil {
			cc.unregister(pc.req.ID)
			if cc.proto == ProtoGob {
				// A failed write poisons the gob stream for every user of
				// the connection, not just this call. (The binary path's
				// frameWriter already tore the connection down, unless the
				// failure was local to this one message.)
				cc.fail(fmt.Errorf("%w: send to %s: %v", ErrUnavailable, c.addr, err))
			}
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
	o := opLookup
	if rep.OneShot(ctx) {
		o = opLookupOnce
	}
	resp, err := c.call(ctx, request{Op: o, Txn: uint64(txn), Key: key})
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
	o := opSuccessorBatch
	if rep.Around(ctx) {
		o = opSuccessorBatchAround
	}
	resp, err := c.call(ctx, request{Op: o, Txn: uint64(txn), Key: key, Count: max})
	if err != nil {
		return nil, err
	}
	return resp.Neighbors, nil
}

// Insert implements rep.Directory.
func (c *Client) Insert(ctx context.Context, txn lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	o := opInsert
	if rep.PrepareRides(ctx) {
		o = opInsertPrepare
	}
	_, err := c.call(ctx, request{Op: o, Txn: uint64(txn), Key: key, Version: ver, Value: value})
	return err
}

// Coalesce implements rep.Directory.
func (c *Client) Coalesce(ctx context.Context, txn lock.TxnID, lo, hi keyspace.Key, ver version.V) (rep.CoalesceResult, error) {
	o := opCoalesce
	if rep.PrepareRides(ctx) {
		o = opCoalescePrepare
	}
	resp, err := c.call(ctx, request{Op: o, Txn: uint64(txn), Key: lo, Hi: hi, Version: ver})
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
