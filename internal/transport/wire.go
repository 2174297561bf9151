package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// The wire codec: fixed one-byte op tags, varint integer fields and
// length-prefixed byte strings, so a request encodes with a handful of
// appends into the frame writer's own buffer and decodes with a handful
// of slice reads. Encoding allocates nothing and a round trip allocates
// only the strings it delivers (TestEncodeZeroAlloc,
// TestCallRoundTripAllocs).
//
// Stream preamble (once per connection, client then server):
//
//	+------+---------+
//	| 0x00 | version |
//	+------+---------+
//
// There is one protocol and no negotiation: a server that reads exactly
// these two bytes echoes them, and closes the connection on anything
// else; a client that does not read them back gives the connection up.
// A change to any layout below is a new version, and peers either side
// of it refuse each other at the first two bytes instead of misreading
// a message later.
//
// After the preamble, both directions carry frames:
//
//	+----------------+------------------------------+
//	| uvarint length | message, message, ...        |
//	+----------------+------------------------------+
//
// A frame holds one or more complete messages; coalescing concurrent
// quorum-round traffic into multi-message frames is the transport's
// batching mechanism (see frameWriter). Messages are self-delimiting,
// so the decoder simply reads until the frame is exhausted.
//
//	request:   tag(1) id(uvarint) txn(uvarint) epoch(uvarint) deadline(uvarint) marks(1) writers(uvarint) fields...
//	response:  tag(1) id(uvarint) code(1) [msg(bytes) if code!=OK | fields if OK]
//
// epoch is the caller's configuration epoch (0 = unversioned), deadline
// its remaining budget in microseconds (0 = none), marks the call marks
// of rep/marks.go as a bitset, writers the writer count a prepare
// carries (0 = none; rep/marks.go). A tag the decoder does not know, a
// marks bit it does not know, a mark on an op that does not take it, a
// writer count above rep.MaxWriters and one on a call that carries no
// prepare are all refused the
// same way: the decode fails, the connection closes, and the caller gets
// ErrUnavailable at once, not a hang — running the plain call instead
// would leave a lock nobody releases, skip a prepare, or answer a
// delete's read with the successors alone.
//
// Keys reuse the keyspace wire kinds (1=LOW, 2=normal+bytes, 3=HIGH);
// strings and byte fields are uvarint length + raw bytes. The exact
// per-op field layouts are pinned byte-for-byte by
// TestWireGoldenVectors.

// op is the wire operation code: the one-byte message tag.
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
)

// marks returns the call marks a request with this op may carry.
func (o op) marks() rep.Marks {
	switch o {
	case opLookup:
		return rep.ContinuingMark | rep.OneShotMark
	case opInsert:
		return rep.ContinuingMark | rep.PrepareMark | rep.ExpectEntryMark | rep.ExpectGapMark
	case opCoalesce:
		return rep.ContinuingMark | rep.PrepareMark
	case opSuccessorBatch:
		return rep.ContinuingMark | rep.AroundMark
	case opPredecessor, opSuccessor, opPredecessorBatch:
		return rep.ContinuingMark
	}
	return 0
}

// prepares reports whether a request with this op and these marks
// carries a prepare, and so may carry a writer count.
func (o op) prepares(m rep.Marks) bool {
	return o == opPrepare || m&rep.PrepareMark != 0
}

// request is the single wire request shape. ID matches the request to
// its response: the connection is multiplexed, so responses may return
// in any order.
type request struct {
	ID    uint64
	Op    op
	Txn   uint64
	Epoch uint64
	// Deadline is the client's remaining context budget in microseconds
	// at send time (0 = no deadline); the server turns it into a
	// per-request context and fast-rejects work it cannot finish in time.
	Deadline uint64
	Marks    rep.Marks
	Writers  uint64
	Key      keyspace.Key
	Hi       keyspace.Key
	Version  version.V
	Value    string
	Count    int

	// Server-side bookkeeping, never on the wire: when the request was
	// decoded, and the absolute deadline its budget implies.
	arrived time.Time
	expires time.Time
}

// response is the single wire response shape. ID echoes the request it
// answers; Op echoes the request op so the decoder knows which result
// fields follow.
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

const (
	// wireVersion names the layouts above; it is offered and echoed in
	// preambles, and a peer holding any other value is refused.
	wireVersion = 5

	// maxFrameLen bounds a received frame before its buffer is
	// allocated, so a corrupt or hostile length prefix cannot balloon
	// memory. Single messages above the bound fail at the sender.
	maxFrameLen = 64 << 20
)

// preamble is what each side of a new connection sends the other.
var preamble = [2]byte{0x00, wireVersion}

// errWire wraps all decode-side framing violations.
var errWire = errors.New("transport: wire codec")

// appendUvarint appends v in unsigned varint form.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendBytes appends a length-prefixed byte string.
func appendBytes(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendKey appends a key as its keyspace wire kind plus, for normal
// keys, the length-prefixed spelling.
func appendKey(b []byte, k keyspace.Key) []byte {
	switch {
	case k.IsLow():
		return append(b, 1)
	case k.IsHigh():
		return append(b, 3)
	default:
		b = append(b, 2)
		return appendBytes(b, k.Raw())
	}
}

// appendBool appends a bool as one byte.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendRequest appends one encoded request message to b. It never fails
// and allocates only to grow b.
func appendRequest(b []byte, req *request) []byte {
	b = append(b, byte(req.Op))
	b = appendUvarint(b, req.ID)
	b = appendUvarint(b, req.Txn)
	b = appendUvarint(b, req.Epoch)
	b = appendUvarint(b, req.Deadline)
	b = append(b, byte(req.Marks))
	b = appendUvarint(b, req.Writers)
	switch req.Op {
	case opLookup, opPredecessor, opSuccessor:
		b = appendKey(b, req.Key)
	case opPredecessorBatch, opSuccessorBatch:
		b = appendKey(b, req.Key)
		b = appendUvarint(b, uint64(req.Count))
	case opInsert:
		b = appendKey(b, req.Key)
		b = appendUvarint(b, uint64(req.Version))
		b = appendBytes(b, req.Value)
	case opCoalesce:
		b = appendKey(b, req.Key)
		b = appendKey(b, req.Hi)
		b = appendUvarint(b, uint64(req.Version))
	case opPrepare, opCommit, opAbort, opStatus, opName:
		// No fields beyond the common header.
	}
	return b
}

// appendResponse appends one encoded response message to b.
func appendResponse(b []byte, resp *response) []byte {
	b = append(b, byte(resp.Op))
	b = appendUvarint(b, resp.ID)
	b = append(b, byte(resp.Code))
	if resp.Code != codeOK {
		return appendBytes(b, resp.Msg)
	}
	switch resp.Op {
	case opLookup:
		b = appendBool(b, resp.Found)
		b = appendUvarint(b, uint64(resp.Version))
		b = appendBytes(b, resp.Value)
	case opPredecessor, opSuccessor:
		b = appendKey(b, resp.Key)
		b = appendUvarint(b, uint64(resp.Version))
		b = appendBytes(b, resp.Value)
		b = appendUvarint(b, uint64(resp.GapVersion))
	case opPredecessorBatch, opSuccessorBatch:
		b = appendUvarint(b, uint64(len(resp.Neighbors)))
		for i := range resp.Neighbors {
			n := &resp.Neighbors[i]
			b = appendKey(b, n.Key)
			b = appendUvarint(b, uint64(n.Version))
			b = appendBytes(b, n.Value)
			b = appendUvarint(b, uint64(n.GapVersion))
		}
	case opCoalesce:
		b = appendUvarint(b, uint64(len(resp.DeletedKeys)))
		for _, k := range resp.DeletedKeys {
			b = appendKey(b, k)
		}
	case opStatus:
		b = appendUvarint(b, uint64(resp.TxnStatus))
	case opName:
		b = appendBytes(b, resp.Name)
	case opInsert, opPrepare, opCommit, opAbort:
		// No result fields.
	}
	return b
}

// wireReader decodes messages from one frame body. The first malformed
// field sets err and ends the frame, and every read after it returns
// zero, so a message is decoded field by field and checked once.
// Byte-string reads are zero-copy slices into the frame; strings and
// keys are materialized, since they must outlive the frame buffer.
type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) remaining() int { return len(r.buf) - r.off }

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errWire, fmt.Sprintf(format, args...))
	}
	r.off = len(r.buf)
}

func (r *wireReader) readByte() byte {
	if r.off >= len(r.buf) {
		r.fail("truncated message")
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

func (r *wireReader) readUvarint() uint64 {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) readVersion() version.V { return version.V(r.readUvarint()) }

// readBytes returns a zero-copy slice into the frame buffer.
func (r *wireReader) readBytes() []byte {
	n := r.readUvarint()
	if n > uint64(r.remaining()) {
		r.fail("byte string length %d exceeds frame", n)
		return nil
	}
	r.off += int(n)
	return r.buf[r.off-int(n) : r.off]
}

func (r *wireReader) readString() string { return string(r.readBytes()) }

func (r *wireReader) readKey() keyspace.Key {
	switch kind := r.readByte(); kind {
	case 1:
		return keyspace.Low()
	case 3:
		return keyspace.High()
	case 2:
		return keyspace.New(r.readString())
	default:
		r.fail("unknown key kind %d", kind)
		return keyspace.Key{}
	}
}

func (r *wireReader) readBool() bool {
	b := r.readByte()
	if b > 1 {
		r.fail("bad bool byte %d", b)
	}
	return b == 1
}

// readCount reads the length of a list whose every element takes at
// least one byte, so the frame itself bounds what is allocated for it.
func (r *wireReader) readCount(what string) uint64 {
	n := r.readUvarint()
	if n > uint64(r.remaining()) {
		r.fail("%s count %d exceeds frame", what, n)
		return 0
	}
	return n
}

// readRequest decodes the next request message into *req, overwriting
// every field.
func (r *wireReader) readRequest(req *request) error {
	*req = request{Op: op(r.readByte())}
	req.ID = r.readUvarint()
	req.Txn = r.readUvarint()
	req.Epoch = r.readUvarint()
	req.Deadline = r.readUvarint()
	req.Marks = rep.Marks(r.readByte())
	if bad := req.Marks &^ req.Op.marks(); bad != 0 {
		r.fail("marks %#x not taken by request tag %d", bad, req.Op)
	}
	switch req.Writers = r.readUvarint(); {
	case req.Writers > rep.MaxWriters:
		r.fail("writer count %d above %d", req.Writers, rep.MaxWriters)
	case req.Writers != 0 && !req.Op.prepares(req.Marks):
		r.fail("writer count %d on request tag %d, which carries no prepare", req.Writers, req.Op)
	}
	switch req.Op {
	case opLookup, opPredecessor, opSuccessor:
		req.Key = r.readKey()
	case opPredecessorBatch, opSuccessorBatch:
		req.Key = r.readKey()
		// The representative sizes its reply from the count: refuse here
		// what it would only cut down.
		if n := r.readUvarint(); n > rep.MaxBatch {
			r.fail("batch count %d exceeds %d", n, rep.MaxBatch)
		} else {
			req.Count = int(n)
		}
	case opInsert:
		req.Key, req.Version, req.Value = r.readKey(), r.readVersion(), r.readString()
	case opCoalesce:
		req.Key, req.Hi, req.Version = r.readKey(), r.readKey(), r.readVersion()
	case opPrepare, opCommit, opAbort, opStatus, opName:
		// No fields.
	default:
		r.fail("unknown request tag %d", req.Op)
	}
	return r.err
}

// readResponse decodes the next response message into *resp,
// overwriting every field.
func (r *wireReader) readResponse(resp *response) error {
	*resp = response{Op: op(r.readByte())}
	resp.ID = r.readUvarint()
	resp.Code = code(r.readByte())
	if resp.Code != codeOK {
		resp.Msg = r.readString()
		return r.err
	}
	switch resp.Op {
	case opLookup:
		resp.Found, resp.Version, resp.Value = r.readBool(), r.readVersion(), r.readString()
	case opPredecessor, opSuccessor:
		resp.Key, resp.Version, resp.Value, resp.GapVersion = r.readKey(), r.readVersion(), r.readString(), r.readVersion()
	case opPredecessorBatch, opSuccessorBatch:
		if n := r.readCount("neighbor"); n > 0 {
			resp.Neighbors = make([]rep.NeighborResult, n)
		}
		for i := 0; i < len(resp.Neighbors) && r.err == nil; i++ {
			nb := &resp.Neighbors[i]
			nb.Key, nb.Version, nb.Value, nb.GapVersion = r.readKey(), r.readVersion(), r.readString(), r.readVersion()
		}
	case opCoalesce:
		if n := r.readCount("deleted-key"); n > 0 {
			resp.DeletedKeys = make([]keyspace.Key, n)
		}
		for i := 0; i < len(resp.DeletedKeys) && r.err == nil; i++ {
			resp.DeletedKeys[i] = r.readKey()
		}
	case opStatus:
		resp.TxnStatus = rep.TxnStatus(r.readUvarint())
	case opName:
		resp.Name = r.readString()
	case opInsert, opPrepare, opCommit, opAbort:
		// No result fields.
	default:
		r.fail("unknown response tag %d", resp.Op)
	}
	return r.err
}
