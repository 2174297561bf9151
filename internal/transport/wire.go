package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repdir/internal/keyspace"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// Hand-rolled binary wire codec (protocol version 1).
//
// The gob codec the transport launched with spends ~30µs of CPU per
// message on reflection-driven encode/decode — two orders of magnitude
// above the wire's cost (EXPERIMENTS.md, "Multiplexed TCP transport").
// This codec replaces it with fixed one-byte op tags, varint integer
// fields, and length-prefixed byte strings, so a request encodes with a
// handful of appends into a pooled buffer and decodes with a handful of
// slice reads.
//
// Stream preamble (once per connection, client then server):
//
//	+------+---------+
//	| 0x00 | version |
//	+------+---------+
//
// 0x00 can never begin a gob stream (gob frames open with a non-zero
// message length: one byte 0x01..0x7F, or 0xF8..0xFF for multi-byte
// lengths), so a server can tell a binary client from a legacy gob
// client by its first byte, and a legacy server feeds the preamble to
// its gob decoder, errors, and closes — which a binary client takes as
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
// Request message:
//
//	tag(1) id(uvarint) txn(uvarint) fields...
//
// Response message:
//
//	tag(1) id(uvarint) code(1) [msg(bytes) if code!=OK | fields if OK]
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
// of the negotiated codec version. It never fails and performs no
// allocation beyond growing b.
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

// wireReader decodes messages from one frame body. Byte-string reads
// are zero-copy slices into the frame; callers materialize strings only
// where an owned copy must outlive the frame buffer.
type wireReader struct {
	buf []byte
	off int
}

func (r *wireReader) remaining() int { return len(r.buf) - r.off }

func (r *wireReader) readByte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("%w: truncated message", errWire)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *wireReader) readUvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", errWire)
	}
	r.off += n
	return v, nil
}

// readBytes returns a zero-copy slice into the frame buffer.
func (r *wireReader) readBytes() ([]byte, error) {
	n, err := r.readUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("%w: byte string length %d exceeds frame", errWire, n)
	}
	s := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return s, nil
}

// readString materializes an owned string.
func (r *wireReader) readString() (string, error) {
	b, err := r.readBytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// readKey decodes a key. Normal keys copy their spelling out of the
// frame (keyspace.Key holds a string, which must own its bytes).
func (r *wireReader) readKey() (keyspace.Key, error) {
	kind, err := r.readByte()
	if err != nil {
		return keyspace.Key{}, err
	}
	switch kind {
	case 1:
		return keyspace.Low(), nil
	case 3:
		return keyspace.High(), nil
	case 2:
		s, err := r.readString()
		if err != nil {
			return keyspace.Key{}, err
		}
		return keyspace.New(s), nil
	default:
		return keyspace.Key{}, fmt.Errorf("%w: unknown key kind %d", errWire, kind)
	}
}

func (r *wireReader) readBool() (bool, error) {
	b, err := r.readByte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: bad bool byte %d", errWire, b)
	}
}

// readRequest decodes the next request message into *req, overwriting
// every field, in the layout of the negotiated codec version.
func (r *wireReader) readRequest(req *request, ver byte) error {
	tag, err := r.readByte()
	if err != nil {
		return err
	}
	*req = request{Op: op(tag)}
	if req.ID, err = r.readUvarint(); err != nil {
		return err
	}
	if req.Txn, err = r.readUvarint(); err != nil {
		return err
	}
	if ver >= 2 {
		if req.Epoch, err = r.readUvarint(); err != nil {
			return err
		}
	}
	if ver >= 3 {
		if req.Deadline, err = r.readUvarint(); err != nil {
			return err
		}
	}
	switch req.Op.unmarked() {
	case opLookup, opPredecessor, opSuccessor:
		req.Key, err = r.readKey()
	case opPredecessorBatch, opSuccessorBatch:
		if req.Key, err = r.readKey(); err != nil {
			return err
		}
		var n uint64
		if n, err = r.readUvarint(); err != nil {
			return err
		}
		// The representative sizes its reply from the count: refuse here
		// what it would only cut down.
		if n > rep.MaxBatch {
			return fmt.Errorf("%w: batch count %d exceeds %d", errWire, n, rep.MaxBatch)
		}
		req.Count = int(n)
	case opInsert:
		if req.Key, err = r.readKey(); err != nil {
			return err
		}
		var v uint64
		if v, err = r.readUvarint(); err != nil {
			return err
		}
		req.Version = version.V(v)
		req.Value, err = r.readString()
	case opCoalesce:
		if req.Key, err = r.readKey(); err != nil {
			return err
		}
		if req.Hi, err = r.readKey(); err != nil {
			return err
		}
		var v uint64
		if v, err = r.readUvarint(); err != nil {
			return err
		}
		req.Version = version.V(v)
	case opPrepare, opCommit, opAbort, opStatus, opName:
		// No fields.
	default:
		return fmt.Errorf("%w: unknown request tag %d", errWire, tag)
	}
	return err
}

// readResponse decodes the next response message into *resp,
// overwriting every field.
func (r *wireReader) readResponse(resp *response) error {
	tag, err := r.readByte()
	if err != nil {
		return err
	}
	*resp = response{Op: op(tag)}
	if resp.ID, err = r.readUvarint(); err != nil {
		return err
	}
	c, err := r.readByte()
	if err != nil {
		return err
	}
	resp.Code = code(c)
	if resp.Code != codeOK {
		resp.Msg, err = r.readString()
		return err
	}
	switch resp.Op.unmarked() {
	case opLookup:
		if resp.Found, err = r.readBool(); err != nil {
			return err
		}
		var v uint64
		if v, err = r.readUvarint(); err != nil {
			return err
		}
		resp.Version = version.V(v)
		resp.Value, err = r.readString()
	case opPredecessor, opSuccessor:
		if resp.Key, err = r.readKey(); err != nil {
			return err
		}
		var v uint64
		if v, err = r.readUvarint(); err != nil {
			return err
		}
		resp.Version = version.V(v)
		if resp.Value, err = r.readString(); err != nil {
			return err
		}
		if v, err = r.readUvarint(); err != nil {
			return err
		}
		resp.GapVersion = version.V(v)
	case opPredecessorBatch, opSuccessorBatch:
		var n uint64
		if n, err = r.readUvarint(); err != nil {
			return err
		}
		// Every neighbor needs at least 4 bytes (key kind, version,
		// empty value, gap version), so the count is bounded by the
		// frame itself.
		if n > uint64(r.remaining()) {
			return fmt.Errorf("%w: neighbor count %d exceeds frame", errWire, n)
		}
		if n > 0 {
			resp.Neighbors = make([]rep.NeighborResult, n)
		}
		for i := range resp.Neighbors {
			nb := &resp.Neighbors[i]
			if nb.Key, err = r.readKey(); err != nil {
				return err
			}
			var v uint64
			if v, err = r.readUvarint(); err != nil {
				return err
			}
			nb.Version = version.V(v)
			if nb.Value, err = r.readString(); err != nil {
				return err
			}
			if v, err = r.readUvarint(); err != nil {
				return err
			}
			nb.GapVersion = version.V(v)
		}
	case opCoalesce:
		var n uint64
		if n, err = r.readUvarint(); err != nil {
			return err
		}
		if n > uint64(r.remaining()) {
			return fmt.Errorf("%w: deleted-key count %d exceeds frame", errWire, n)
		}
		if n > 0 {
			resp.DeletedKeys = make([]keyspace.Key, n)
		}
		for i := range resp.DeletedKeys {
			if resp.DeletedKeys[i], err = r.readKey(); err != nil {
				return err
			}
		}
	case opStatus:
		var v uint64
		if v, err = r.readUvarint(); err != nil {
			return err
		}
		resp.TxnStatus = rep.TxnStatus(v)
	case opName:
		resp.Name, err = r.readString()
	case opInsert, opPrepare, opCommit, opAbort:
		// No result fields.
	default:
		return fmt.Errorf("%w: unknown response tag %d", errWire, tag)
	}
	return err
}
