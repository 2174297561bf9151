package transport

import (
	"bytes"
	"reflect"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// fuzzKey maps fuzz inputs onto the three key kinds.
func fuzzKey(kind uint8, s string) keyspace.Key {
	switch kind % 3 {
	case 0:
		return keyspace.Low()
	case 1:
		return keyspace.High()
	default:
		return keyspace.New(s)
	}
}

// FuzzCodecRoundTrip drives the codec from both ends: structured inputs
// must encode→decode to identical messages for every request/response
// variant — every op, with an epoch, a deadline and, for half the
// inputs, the marks the op takes — and the raw encoded bytes, plus
// arbitrary mutations of them the fuzzer discovers, must never panic
// the decoders or read out of bounds. The decoders see `raw` directly,
// so the fuzzer explores corrupt framings as well as valid ones.
func FuzzCodecRoundTrip(f *testing.F) {
	// The op is tag%12 + 1, marked from tag 128 up.
	f.Add(uint8(0), uint64(1), uint64(2), uint8(2), "key", uint8(0), "", uint64(3), "value", 4, uint8(0), "", []byte{})
	f.Add(uint8(5), uint64(9), uint64(8), uint8(2), "k", uint8(1), "hi", uint64(1<<40), "v", 0, uint8(2), "msg", []byte{0x01, 0x02})
	f.Add(uint8(11), uint64(0), uint64(0), uint8(0), "", uint8(2), "z", uint64(0), "", -1, uint8(9), "boom", []byte{0xff, 0xff, 0xff})
	// The marked calls, each with its own encoding as raw.
	f.Add(uint8(132), uint64(7), uint64(9), uint8(2), "k", uint8(0), "", uint64(4), "v", 0, uint8(0), "", []byte{0x01, 0x07, 0x09, 0x00, 0x00, 0x01, 0x00, 0x02, 0x01, 'k'})
	f.Add(uint8(137), uint64(1), uint64(2), uint8(2), "ab", uint8(0), "", uint64(3), "xyz", 0, uint8(8), "no", []byte{0x06, 0x01, 0x02, 0x00, 0x00, 0x02, 0x03, 0x02, 0x02, 'a', 'b', 0x03, 0x03, 'x', 'y', 'z'})
	f.Add(uint8(137), uint64(1), uint64(2), uint8(2), "k", uint8(0), "", uint64(4), "v", 0, uint8(codeVersionMoved), "moved", []byte{0x06, 0x01, 0x02, 0x00, 0x00, 0x0a, 0x02, 0x02, 0x01, 'k', 0x04, 0x01, 'v'})
	f.Add(uint8(138), uint64(1), uint64(2), uint8(0), "", uint8(1), "", uint64(5), "", 0, uint8(0), "", []byte{0x07, 0x01, 0x02, 0x00, 0x00, 0x02, 0x05, 0x01, 0x03, 0x05})
	f.Add(uint8(136), uint64(1), uint64(2), uint8(2), "k", uint8(0), "", uint64(3), "v", 3, uint8(0), "", []byte{0x05, 0x01, 0x02, 0x00, 0x00, 0x04, 0x00, 0x02, 0x01, 'k', 0x03})
	// What the request decoder refuses: under each batch tag a count of
	// 65, one over the page (TestWireRefusesOversizedBatch); a flag from
	// the future; a mark on an op that does not take it; a writer count on
	// a call that carries no prepare.
	f.Add(uint8(136), uint64(1), uint64(2), uint8(2), "k", uint8(0), "", uint64(3), "v", rep.MaxBatch, uint8(0), "", []byte{0x05, 0x01, 0x02, 0x00, 0x00, 0x04, 0x00, 0x02, 0x01, 'k', 0x41})
	f.Add(uint8(4), uint64(1), uint64(2), uint8(0), "", uint8(0), "", uint64(0), "", rep.MaxBatch, uint8(0), "", []byte{0x05, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x41})
	f.Add(uint8(3), uint64(1), uint64(2), uint8(1), "", uint8(0), "", uint64(0), "", rep.MaxBatch, uint8(0), "", []byte{0x04, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x03, 0x41})
	f.Add(uint8(0), uint64(7), uint64(9), uint8(2), "k", uint8(0), "", uint64(0), "", 0, uint8(0), "", []byte{0x01, 0x07, 0x09, 0x00, 0x00, 0x08, 0x00, 0x02, 0x01, 'k'})
	f.Add(uint8(5), uint64(1), uint64(2), uint8(2), "ab", uint8(0), "", uint64(3), "xyz", 0, uint8(0), "", []byte{0x06, 0x01, 0x02, 0x00, 0x00, 0x01, 0x00, 0x02, 0x02, 'a', 'b', 0x03, 0x03, 'x', 'y', 'z'})
	f.Add(uint8(8), uint64(1), uint64(2), uint8(0), "", uint8(0), "", uint64(0), "", 0, uint8(0), "", []byte{0x09, 0x01, 0x02, 0x00, 0x00, 0x00, 0x02})

	f.Fuzz(func(t *testing.T, tag uint8, id, txn uint64, keyKind uint8, keyS string,
		hiKind uint8, hiS string, ver uint64, value string, count int, codeByte uint8, msg string, raw []byte) {

		// Structured round trip: a valid request of every op.
		reqOp := op(tag%12) + 1
		req := request{ID: id, Op: reqOp, Txn: txn, Epoch: id ^ txn, Deadline: ver ^ txn}
		if tag >= 128 {
			req.Marks = reqOp.marks()
		}
		if reqOp.prepares(req.Marks) {
			req.Writers = ver % 5
		}
		switch reqOp {
		case opLookup, opPredecessor, opSuccessor:
			req.Key = fuzzKey(keyKind, keyS)
		case opPredecessorBatch, opSuccessorBatch:
			req.Key = fuzzKey(keyKind, keyS)
			if count < 0 {
				count = -count
			}
			req.Count = count % (rep.MaxBatch + 1)
		case opInsert:
			req.Key = fuzzKey(keyKind, keyS)
			req.Version = version.V(ver)
			req.Value = value
		case opCoalesce:
			req.Key = fuzzKey(keyKind, keyS)
			req.Hi = fuzzKey(hiKind, hiS)
			req.Version = version.V(ver)
		}
		encReq := appendRequest(nil, &req)
		r := wireReader{buf: encReq}
		var gotReq request
		if err := r.readRequest(&gotReq); err != nil {
			t.Fatalf("valid request %+v failed to decode: %v", req, err)
		}
		if !reflect.DeepEqual(gotReq, req) {
			t.Fatalf("request round trip:\n got  %+v\n want %+v", gotReq, req)
		}
		if r.remaining() != 0 {
			t.Fatalf("request decode left %d bytes", r.remaining())
		}

		// Structured round trip: a response for the same op, OK or error.
		resp := response{ID: id, Op: reqOp, Code: code(codeByte % uint8(codeVersionMoved+1))}
		if resp.Code != codeOK {
			resp.Msg = msg
		} else {
			switch reqOp {
			case opLookup:
				resp.Found = ver%2 == 0
				resp.Version = version.V(ver)
				resp.Value = value
			case opPredecessor, opSuccessor:
				resp.Key = fuzzKey(keyKind, keyS)
				resp.Version = version.V(ver)
				resp.Value = value
				resp.GapVersion = version.V(ver / 2)
			case opPredecessorBatch, opSuccessorBatch:
				n := int(ver%3) + 1
				for i := 0; i < n; i++ {
					resp.Neighbors = append(resp.Neighbors, rep.NeighborResult{
						Key: fuzzKey(keyKind+uint8(i), keyS), Version: version.V(ver),
						Value: value, GapVersion: version.V(uint64(i)),
					})
				}
			case opCoalesce:
				if len(keyS) > 0 {
					resp.DeletedKeys = []keyspace.Key{fuzzKey(2, keyS), keyspace.Low()}
				}
			case opStatus:
				resp.TxnStatus = rep.TxnStatus(ver % 64)
			case opName:
				resp.Name = value
			}
		}
		encResp := appendResponse(nil, &resp)
		r = wireReader{buf: encResp}
		var gotResp response
		if err := r.readResponse(&gotResp); err != nil {
			t.Fatalf("valid response %+v failed to decode: %v", resp, err)
		}
		if !reflect.DeepEqual(gotResp, resp) {
			t.Fatalf("response round trip:\n got  %+v\n want %+v", gotResp, resp)
		}

		// Re-encoding the decoded message must be byte-identical
		// (canonical encoding — no two spellings of one message).
		if re := appendRequest(nil, &gotReq); !bytes.Equal(re, encReq) {
			t.Fatalf("request re-encode differs:\n got  %#v\n want %#v", re, encReq)
		}
		if re := appendResponse(nil, &gotResp); !bytes.Equal(re, encResp) {
			t.Fatalf("response re-encode differs:\n got  %#v\n want %#v", re, encResp)
		}

		// Adversarial half: arbitrary bytes must error or decode, never
		// panic. Decode repeatedly to walk multi-message framings.
		for _, buf := range [][]byte{raw, encReq, encResp} {
			r := wireReader{buf: buf}
			for r.remaining() > 0 {
				var rq request
				if err := r.readRequest(&rq); err != nil {
					break
				}
			}
			r = wireReader{buf: buf}
			for r.remaining() > 0 {
				var rs response
				if err := r.readResponse(&rs); err != nil {
					break
				}
			}
		}
	})
}
