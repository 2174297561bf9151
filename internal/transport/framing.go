package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repdir/internal/obs"
)

// Frame buffer tuning. Coalesced frames are flushed once they pass
// batchFlushBytes; a single message may exceed it (up to maxFrameLen)
// and then travels in a frame of its own. A connection's buffers start
// at frameBufCap and grow with its traffic; one that grew past
// frameBufKeep is left to the garbage collector after use, so one huge
// value cannot pin a huge buffer forever.
const (
	batchFlushBytes = 256 << 10
	frameBufCap     = 4096
	frameBufKeep    = 1 << 20
	// frameHdrMax is the room a frameWriter keeps free in front of its
	// messages for the frame's length prefix: maxFrameLen fits a uvarint
	// of four bytes.
	frameHdrMax = binary.MaxVarintLen32
)

// WireStats counts the transport's frame traffic in both directions:
// frames, bytes, and messages, plus histograms of bytes per frame and
// messages per frame (the batch size). One WireStats is shared by all
// connections of a Client or Server, so the numbers describe the
// endpoint, not one socket. All methods are safe for concurrent use and
// nil-receiver safe.
type WireStats struct{ tx, rx wireDir }

// wireDir is one direction's live counters.
type wireDir struct {
	frames, bytes, msgs atomic.Uint64
	frameBytes, batch   obs.SizeHistogram
}

// WireSnapshot is a point-in-time copy of one direction's counters.
type WireSnapshot struct {
	Frames, Bytes, Msgs uint64
	// FrameBytes is the distribution of frame payload sizes in bytes;
	// Batch the distribution of messages per frame.
	FrameBytes obs.SizeSnapshot
	Batch      obs.SizeSnapshot
}

func (d *wireDir) note(frameBytes, msgs int) {
	d.frames.Add(1)
	d.bytes.Add(uint64(frameBytes))
	d.msgs.Add(uint64(msgs))
	d.frameBytes.Observe(uint64(frameBytes))
	d.batch.Observe(uint64(msgs))
}

func (d *wireDir) snapshot() WireSnapshot {
	return WireSnapshot{
		Frames:     d.frames.Load(),
		Bytes:      d.bytes.Load(),
		Msgs:       d.msgs.Load(),
		FrameBytes: d.frameBytes.Snapshot(),
		Batch:      d.batch.Snapshot(),
	}
}

// Sent returns the send-direction snapshot.
func (s *WireStats) Sent() WireSnapshot {
	if s == nil {
		return WireSnapshot{}
	}
	return s.tx.snapshot()
}

// Recv returns the receive-direction snapshot.
func (s *WireStats) Recv() WireSnapshot {
	if s == nil {
		return WireSnapshot{}
	}
	return s.rx.snapshot()
}

func (s *WireStats) noteSent(frameBytes, msgs int) {
	if s != nil {
		s.tx.note(frameBytes, msgs)
	}
}

func (s *WireStats) noteRecv(frameBytes, msgs int) {
	if s != nil {
		s.rx.note(frameBytes, msgs)
	}
}

// RegisterWireStats exposes several endpoints' wire counters and
// histograms on reg under one set of repdir_wire_* families, labeled by
// endpoint (e.g. "server", "client") and direction. A registry panics on
// duplicate family names, so a process with multiple transports (say,
// one server per shard member it hosts) registers them together.
func RegisterWireStats(reg *obs.Registry, stats map[string]*WireStats) {
	endpoints := make([]string, 0, len(stats))
	for ep, s := range stats {
		if s != nil {
			endpoints = append(endpoints, ep)
		}
	}
	sort.Strings(endpoints)
	labels := []string{"endpoint", "dir"}
	each := func(visit func(labels []string, d *wireDir)) {
		for _, ep := range endpoints {
			visit([]string{ep, "tx"}, &stats[ep].tx)
			visit([]string{ep, "rx"}, &stats[ep].rx)
		}
	}
	counter := func(name, help string, read func(*wireDir) *atomic.Uint64) {
		reg.CounterVec(name, help, labels, func() (out []obs.Sample) {
			each(func(l []string, d *wireDir) {
				out = append(out, obs.Sample{Labels: l, Value: float64(read(d).Load())})
			})
			return out
		})
	}
	sizes := func(name, help string, read func(*wireDir) *obs.SizeHistogram) {
		reg.SizeHistogramVec(name, help, labels, func() (out []obs.SizeSample) {
			each(func(l []string, d *wireDir) {
				out = append(out, obs.SizeSample{Labels: l, Snap: read(d).Snapshot()})
			})
			return out
		})
	}
	counter("repdir_wire_frames_total", "Wire frames carried by the transport.",
		func(d *wireDir) *atomic.Uint64 { return &d.frames })
	counter("repdir_wire_bytes_total", "Wire frame payload bytes carried by the transport.",
		func(d *wireDir) *atomic.Uint64 { return &d.bytes })
	counter("repdir_wire_messages_total", "Request/response messages carried by the transport.",
		func(d *wireDir) *atomic.Uint64 { return &d.msgs })
	sizes("repdir_wire_frame_bytes", "Distribution of frame payload sizes in bytes.",
		func(d *wireDir) *obs.SizeHistogram { return &d.frameBytes })
	sizes("repdir_wire_batch_size", "Distribution of messages coalesced per frame.",
		func(d *wireDir) *obs.SizeHistogram { return &d.batch })
}

// outMsg is one message for a frameWriter to encode: a request or a
// response.
type outMsg struct {
	req  *request
	resp *response
}

func (m outMsg) appendTo(b []byte) []byte {
	if m.req != nil {
		return appendRequest(b, m.req)
	}
	return appendResponse(b, m.resp)
}

// frameWriter coalesces encoded messages into length-prefixed frames
// with group commit: the goroutine that finds the writer idle becomes
// the flusher and keeps writing until the pending buffer is empty, and
// messages enqueued while a write syscall is in flight ride out
// together in the next frame. Under a single caller every message
// flushes immediately (no added latency); under concurrent quorum
// rounds, frames batch up automatically.
//
// The writer owns two buffers and never copies between them. Enqueuers
// encode into pending under mu; the flusher swaps pending for the spare
// under mu and writes what it took with mu released, so at any moment a
// buffer is either being filled or being written, never both, and the
// steady state allocates nothing. Each buffer keeps frameHdrMax bytes
// free in front of its messages: the length prefix is written there,
// right before the body, and a frame is one Write.
//
// A failed write permanently breaks the writer: the error is recorded,
// onErr runs once (tearing down the connection and failing in-flight
// calls), and every later enqueue fails fast. Nothing is ever written
// after a failure, so a partial frame cannot be followed by bytes the
// peer would misparse.
type frameWriter struct {
	w     io.Writer
	stats *WireStats
	onErr func(error)

	mu       sync.Mutex
	pending  []byte // frameHdrMax free bytes, then encoded messages awaiting flush
	ends     []int  // message end offsets within pending
	flushing bool
	err      error

	// The other buffer and its offsets. Only the flusher touches them,
	// and the role changes hands under mu.
	spare     []byte
	spareEnds []int
}

func newFrameWriter(w io.Writer, stats *WireStats, onErr func(error)) *frameWriter {
	return &frameWriter{w: w, stats: stats, onErr: onErr,
		pending: newFrameBuf(), spare: newFrameBuf()}
}

func newFrameBuf() []byte { return make([]byte, frameHdrMax, frameBufCap) }

// enqueue encodes one message behind those already pending and flushes
// per the group-commit policy. It returns once the message is handed to
// the kernel or queued behind an active flusher that will carry it.
func (fw *frameWriter) enqueue(m outMsg) error {
	fw.mu.Lock()
	if fw.err != nil {
		err := fw.err
		fw.mu.Unlock()
		return err
	}
	start := len(fw.pending)
	fw.pending = m.appendTo(fw.pending)
	if len(fw.pending)-start > maxFrameLen {
		// A message over the frame bound would poison the stream at the
		// receiver; fail just this call, wherever in the batch it sits,
		// and do not keep the buffer it grew.
		fw.pending = append(newFrameBuf()[:0], fw.pending[:start]...)
		fw.mu.Unlock()
		return fmt.Errorf("%w: message exceeds %d-byte frame bound", errWire, maxFrameLen)
	}
	fw.ends = append(fw.ends, len(fw.pending))
	if fw.flushing {
		// The active flusher will pick this message up; its write
		// outcome reaches this caller through the connection teardown
		// path if it fails.
		fw.mu.Unlock()
		return nil
	}
	fw.flushing = true
	fw.mu.Unlock()
	// Group-commit heuristic: yield once before writing, so runnable
	// peers (quorum-round goroutines mid-send, handlers finishing
	// together) get to enqueue into this frame. With an empty run queue
	// this costs ~100ns; under load it turns N write syscalls into one.
	runtime.Gosched()
	return fw.flushLoop()
}

// flushLoop drains pending as the current flush leader. It returns the
// first write error (also recorded for later enqueuers).
func (fw *frameWriter) flushLoop() error {
	for {
		fw.mu.Lock()
		if fw.err != nil || len(fw.ends) == 0 {
			err := fw.err
			fw.flushing = false
			fw.mu.Unlock()
			return err
		}
		buf, ends := fw.pending, fw.ends
		fw.pending, fw.ends = fw.spare[:frameHdrMax], fw.spareEnds[:0]
		fw.mu.Unlock()

		err := fw.writeFrames(buf, ends)
		if cap(buf) > frameBufKeep {
			buf = newFrameBuf()
		}
		fw.spare, fw.spareEnds = buf, ends
		if err != nil {
			fw.fail(fmt.Errorf("transport: frame write: %w", err))
			return err
		}
	}
}

// writeFrames sends the messages of buf, which end at ends, as frames of
// whole messages bounded by batchFlushBytes; a message over
// batchFlushBytes goes alone. The caller owns buf: each frame's length
// prefix is written right before its body, over the free bytes at the
// front or over messages already sent.
func (fw *frameWriter) writeFrames(buf []byte, ends []int) error {
	start := frameHdrMax
	for len(ends) > 0 {
		take := len(ends)
		for take > 1 && ends[take-1]-start > batchFlushBytes {
			take--
		}
		end := ends[take-1]
		body := uint64(end - start)
		hdr := start - (bits.Len64(body|1)+6)/7
		binary.PutUvarint(buf[hdr:start], body)
		if _, err := fw.w.Write(buf[hdr:end]); err != nil {
			return err
		}
		fw.stats.noteSent(end-start, take)
		start, ends = end, ends[take:]
	}
	return nil
}

// fail records the first write error and runs the teardown hook once.
func (fw *frameWriter) fail(err error) {
	fw.mu.Lock()
	if fw.err != nil {
		fw.mu.Unlock()
		return
	}
	fw.err = err
	fw.flushing = false
	fw.pending = nil
	fw.ends = nil
	onErr := fw.onErr
	fw.mu.Unlock()
	if onErr != nil {
		onErr(err)
	}
}

// readFrame reads one length-prefixed frame into buf, growing it when
// the frame is larger, and returns the frame. A connection has one
// reader, which passes the same buffer back in for every frame: each
// message is copied out of it as it is decoded, so nothing outlives the
// next read.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxFrameLen {
		return nil, fmt.Errorf("%w: frame length %d out of range", errWire, n)
	}
	if uint64(cap(buf)) < n || cap(buf) > frameBufKeep {
		buf = make([]byte, max(n, frameBufCap))
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
