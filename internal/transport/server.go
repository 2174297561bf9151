package transport

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repdir/internal/lock"
	"repdir/internal/rep"
)

// DefaultPerConnConcurrency bounds how many requests from one connection
// a server runs at once when WithPerConnConcurrency is not given.
const DefaultPerConnConcurrency = 32

// ServerOption configures Serve.
type ServerOption func(*Server)

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

// Server exposes one representative over TCP. Each connection has one
// decode loop, but every request is dispatched to its own goroutine
// (bounded by the per-connection concurrency limit), so a request stuck
// waiting for a lock does not head-of-line-block later requests on the
// same connection. Responses are matched to requests by ID and
// group-commit through a frameWriter.
type Server struct {
	dir rep.Directory
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	// perConn bounds concurrent dispatch per connection.
	perConn int
	// queueDepth buffers the per-connection dispatch queue (0 =
	// unbuffered handoff); queueSet records an explicit option so
	// admission can supply its own default.
	queueDepth int
	queueSet   bool
	// admit is the overload-shedding controller (disabled by default).
	admit admitState
	// stats aggregates frame traffic across connections.
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
		dir:     dir,
		ln:      ln,
		conns:   make(map[net.Conn]struct{}),
		perConn: DefaultPerConnConcurrency,
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

// WireStats returns the server's frame traffic counters.
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

// serveConn answers the preamble — echoing it, or closing on anything
// but this build's own — and then decodes multi-message frames,
// dispatching each request to its own bounded goroutine. Responses
// group-commit through a frameWriter, so replies to a batch of
// concurrent requests coalesce into few frames.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	var pre [2]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || pre != preamble {
		return
	}
	if _, err := conn.Write(preamble[:]); err != nil {
		return
	}
	// A failed response write leaves the stream corrupt mid-frame; close
	// the connection so the client's in-flight calls fail fast instead
	// of waiting out their timeouts.
	fw := newFrameWriter(conn, &s.stats, func(error) { conn.Close() })
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
			if err := r.readRequest(&req); err != nil {
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
// request. It answers for the request's deadline (rep.Expiry: no channel
// and no timer unless the handler waits), for the caller's configuration
// epoch (zero fences as an unversioned caller) and for the call marks and
// writer count its header carried.
type callCtx struct {
	rep.Expiry
	epoch   uint64
	marks   rep.Marks
	writers int
}

func (c *callCtx) Value(key any) any {
	switch key.(type) {
	case rep.EpochKey:
		return c.epoch
	case rep.MarksKey:
		return c.marks
	case rep.WritersKey:
		return c.writers
	}
	return nil
}

// handle runs one request against the representative and leaves the
// reply in *resp. The handler's deadline is the client's own when the
// request carries one — which is what keeps one short-deadline call from
// cancelling a long-deadline sibling on the same connection — capped by
// rep.CallTimeout, so a client claiming an hour of budget cannot pin a
// worker that long, nor keep a transaction it abandoned alive that long.
func (s *Server) handle(req *request, resp *response) {
	limit := req.arrived.Add(rep.CallTimeout)
	if !req.expires.IsZero() && req.expires.Before(limit) {
		limit = req.expires
	}
	ctx := &callCtx{epoch: req.Epoch, marks: req.Marks, writers: int(req.Writers)}
	ctx.Set(limit)
	defer ctx.End(context.Canceled)
	*resp = response{ID: req.ID, Op: req.Op}
	txn := lock.TxnID(req.Txn)
	var err error
	switch req.Op {
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
	}
	resp.Code, resp.Msg = encodeError(err)
}
