package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/lock"
	"repdir/internal/wal"
)

// spanKind says which boundary recorded a span.
type spanKind uint8

const (
	kindOp    spanKind = iota // the driver's call into core.Suite / shard.Router
	kindCall                  // a member call as the suite sees it, modelled round trip included
	kindServe                 // the same call arriving at *rep.Rep
	kindWAL                   // a wal.Log Append inside it
)

var kindNames = [...]string{"op", "call", "serve", "wal"}

// span is one timed interval. Times are nanoseconds since the
// recorder's epoch.
//
//   - op:    name = opKind, op = the operation's id.
//   - call:  name = method, op = the id found in ctx, mid = when the
//     modelled round trip ended and the transport call began.
//   - serve: name = method; joined to its call by (txn, member) and time.
//   - wal:   name = wal.Kind, mid = when the log was free, writeNs and
//     syncNs = time inside File.Write and File.Sync.
type span struct {
	kind   spanKind
	name   uint8
	member uint8
	failed bool
	op     uint64
	txn    uint64
	start  int64
	mid    int64
	end    int64

	writeNs, syncNs int64
}

// recorder is the in-memory trace of one deployment.
type recorder struct {
	epoch time.Time
	live  *atomic.Bool // nothing is recorded while a deployment is preloaded

	mu   sync.Mutex
	bufs []*spanBuf
}

func newRecorder(live *atomic.Bool) *recorder {
	return &recorder{epoch: time.Now(), live: live}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// buf hands out a span buffer; each wrapper and each client owns one.
func (r *recorder) buf() *spanBuf {
	b := &spanBuf{}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

// spans returns everything recorded so far.
func (r *recorder) spans() []span {
	var out []span
	for _, b := range r.bufs {
		b.mu.Lock()
		out = append(out, b.spans...)
		b.mu.Unlock()
	}
	return out
}

type spanBuf struct {
	mu    sync.Mutex
	spans []span
}

func (b *spanBuf) add(s span) int {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	n := len(b.spans) - 1
	b.mu.Unlock()
	return n
}

func (b *spanBuf) finish(slot int, end int64, failed bool) {
	b.mu.Lock()
	b.spans[slot].end = end
	b.spans[slot].failed = failed
	b.mu.Unlock()
}

// opMark travels in a client's context. The driver sets id before each
// operation; the first traced member call sets hit, which tells the
// driver to record the operation's own span.
type opMark struct {
	id  uint64
	hit atomic.Bool
}

type opMarkKey struct{}

// clientTap sits between the suite and the transport client: it models
// the round trip and records the call span around both.
type clientTap struct {
	rec    *recorder
	buf    *spanBuf
	member uint8
	rtt    modelledDelay
}

func (t *clientTap) enter(ctx context.Context, id lock.TxnID, m method) int {
	if !t.rec.live.Load() {
		t.rtt.wait()
		return -1
	}
	s := span{kind: kindCall, name: uint8(m), member: t.member, txn: uint64(id), start: t.rec.now()}
	if mark, ok := ctx.Value(opMarkKey{}).(*opMark); ok {
		s.op = mark.id
		mark.hit.Store(true)
	}
	t.rtt.wait()
	s.mid = t.rec.now()
	return t.buf.add(s)
}

func (t *clientTap) exit(slot int, err error) {
	if slot >= 0 {
		t.buf.finish(slot, t.rec.now(), err != nil)
	}
}

// serverTap sits between the transport and *rep.Rep.
type serverTap struct {
	rec    *recorder
	buf    *spanBuf
	member uint8
}

func (t *serverTap) enter(_ context.Context, id lock.TxnID, m method) int {
	if !t.rec.live.Load() {
		return -1
	}
	now := t.rec.now()
	return t.buf.add(span{kind: kindServe, name: uint8(m), member: t.member, txn: uint64(id), start: now, mid: now})
}

func (t *serverTap) exit(slot int, err error) {
	if slot >= 0 {
		t.buf.finish(slot, t.rec.now(), err != nil)
	}
}

// simFile is the storage under a wal.FileLog: it keeps nothing, counts
// what it is given, and charges a fixed time for Sync.
type simFile struct {
	fsync modelledDelay

	writes, bytes, syncs atomic.Int64
	writeNs, syncNs      atomic.Int64
	timed                bool // time Write and Sync (traced deployments)
}

var _ wal.File = (*simFile)(nil)

func (f *simFile) Write(p []byte) (int, error) {
	if f.timed {
		defer func(t0 time.Time) { f.writeNs.Add(int64(time.Since(t0))) }(time.Now())
	}
	f.writes.Add(1)
	f.bytes.Add(int64(len(p)))
	return len(p), nil
}

func (f *simFile) Sync() error {
	f.syncs.Add(1)
	if !f.timed {
		f.fsync.wait()
		return nil
	}
	t0 := time.Now()
	f.fsync.wait()
	f.syncNs.Add(int64(time.Since(t0)))
	return nil
}

func (f *simFile) Truncate(int64) error { return nil }
func (f *simFile) Close() error         { return nil }

// nullLog is the log of the workloads that are not about the log: it
// assigns LSNs and keeps nothing, so the heap does not grow with the
// run as it would under wal.MemoryLog.
type nullLog struct{ next atomic.Uint64 }

func (l *nullLog) Append(wal.Record) error { l.next.Add(1); return nil }
func (l *nullLog) NextLSN() uint64         { return l.next.Load() + 1 }
func (l *nullLog) Close() error            { return nil }

// tapLog is the wal.Log given to rep.WithLog on a traced deployment. It
// serialises appends itself — the inner log would anyway — so that the
// wait for the log and the file time of one append can be told apart
// from the next one's.
type tapLog struct {
	inner  wal.Log
	file   *simFile // nil over a nullLog
	rec    *recorder
	buf    *spanBuf
	member uint8

	mu      sync.Mutex
	appends atomic.Int64
}

func (l *tapLog) Append(r wal.Record) error {
	l.appends.Add(1)
	if !l.rec.live.Load() {
		l.mu.Lock()
		err := l.inner.Append(r)
		l.mu.Unlock()
		return err
	}
	s := span{kind: kindWAL, name: uint8(r.Kind), member: l.member, txn: r.Txn, start: l.rec.now()}
	l.mu.Lock()
	s.mid = l.rec.now()
	var w0, s0 int64
	if l.file != nil {
		w0, s0 = l.file.writeNs.Load(), l.file.syncNs.Load()
	}
	err := l.inner.Append(r)
	if l.file != nil {
		s.writeNs, s.syncNs = l.file.writeNs.Load()-w0, l.file.syncNs.Load()-s0
	}
	s.end = l.rec.now()
	l.mu.Unlock()
	s.failed = err != nil
	l.buf.add(s)
	return err
}

func (l *tapLog) NextLSN() uint64 { return l.inner.NextLSN() }
func (l *tapLog) Close() error    { return l.inner.Close() }
