package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repdir/internal/keyspace"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// Hand-rolled binary wire codec: fixed one-byte op tags, varint integer
// fields and length-prefixed byte strings, so a request encodes with a
// handful of appends into the frame writer's own buffer and decodes with
// a handful of slice reads. Encoding allocates nothing and a round trip
// allocates only the strings it delivers (TestEncodeZeroAlloc,
// TestCallRoundTripAllocs); EXPERIMENTS.md, "Wire codec", has what that
// bought over the reflection-driven gob codec the transport launched
// with, which remains for peers that predate this one.
//
// Stream preamble (once per connection, client then server):
//
//	+------+---------+
//	| 0x00 | version |
//	+------+---------+
//
// 0x00 can never begin a gob stream (gob frames open with a non-zero
// message length), so a server can tell a binary client from a gob
// client by its first byte, and a gob-only server feeds the preamble to
// its decoder, errors, and closes — which a binary client takes as
// "negotiate down to gob" (see ensureConn).
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
//	request:   tag(1) id(uvarint) txn(uvarint) fields...
//	response:  tag(1) id(uvarint) code(1) [msg(bytes) if code!=OK | fields if OK]
//
// Keys reuse the keyspace wire kinds (1=LOW, 2=normal+bytes, 3=HIGH);
// strings and byte fields are uvarint length + raw bytes. The exact
// per-op field layouts are pinned byte-for-byte by
// TestWireGoldenVectors; this encoding is an on-wire contract — extend
// it with new tags, never by reshaping existing ones. Tags 13–16 are
// such an extension: the one-shot Lookup, the Insert and Coalesce that
// carry the prepare and the SuccessorBatch that reads a key's whole
// neighborhood (rep/marks.go), each laid out exactly like its plain
// form. A peer that predates them fails the decode and closes the
// connection, so the caller gets ErrUnavailable at once, not a hang.

const (
	// preambleByte opens a binary-codec stream; see above for why 0x00.
	preambleByte = 0x00
	// wireVersion is the codec version offered and echoed in preambles.
	// Both sides speak min(offered, supported), so mixed-version pairs
	// settle on the older layout.
	//
	// Version history:
	//	1: initial binary codec.
	//	2: request header gains the caller's configuration epoch
	//	   (uvarint after txn), for epoch fencing (internal/reconfig).
	//	   Response layouts are unchanged.
	//	3: request header gains the caller's remaining deadline budget
	//	   in microseconds (uvarint after epoch, 0 = no deadline), for
	//	   server-side deadline propagation and expired-work rejection.
	//	   Response layouts are unchanged.
	wireVersion = 3

	// maxFrameLen bounds a received frame before its buffer is
	// allocated, so a corrupt or hostile length prefix cannot balloon
	// memory. Single messages above the bound fail at the sender.
	maxFrameLen = 64 << 20
)

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

// appendRequest appends one encoded request message to b, in the layout
// of the negotiated codec version. It never fails and allocates only to
// grow b.
func appendRequest(b []byte, req *request, ver byte) []byte {
	b = append(b, byte(req.Op))
	b = appendUvarint(b, req.ID)
	b = appendUvarint(b, req.Txn)
	if ver >= 2 {
		b = appendUvarint(b, req.Epoch)
	}
	if ver >= 3 {
		b = appendUvarint(b, req.Deadline)
	}
	switch req.Op.unmarked() {
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
	switch resp.Op.unmarked() {
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
// every field, in the layout of the negotiated codec version.
func (r *wireReader) readRequest(req *request, ver byte) error {
	*req = request{Op: op(r.readByte())}
	req.ID = r.readUvarint()
	req.Txn = r.readUvarint()
	if ver >= 2 {
		req.Epoch = r.readUvarint()
	}
	if ver >= 3 {
		req.Deadline = r.readUvarint()
	}
	switch req.Op.unmarked() {
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
	switch resp.Op.unmarked() {
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
