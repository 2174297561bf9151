package transport

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/rep"
)

// TestWireGoldenVectors pins the encoding byte-for-byte, every op in
// both directions. These vectors are the on-wire contract: if one of
// them changes, old and new builds can no longer talk, so a failure here
// means "bump the wire version", never "update the expected bytes".
func TestWireGoldenVectors(t *testing.T) {
	if want := [2]byte{0x00, 0x05}; preamble != want {
		t.Errorf("preamble % x, want % x", preamble, want)
	}

	// tag id txn epoch deadline marks writers, then the op's fields.
	reqVectors := []struct {
		name string
		req  request
		want []byte
	}{
		{
			name: "lookup",
			req:  request{ID: 7, Op: opLookup, Txn: 9, Epoch: 5, Deadline: 300, Key: keyspace.New("k")},
			want: []byte{0x01, 0x07, 0x09, 0x05, 0xac, 0x02, 0x00, 0x00, 0x02, 0x01, 'k'},
		},
		{
			name: "lookup_no_epoch_no_deadline",
			req:  request{ID: 7, Op: opLookup, Txn: 9, Key: keyspace.New("k")},
			want: []byte{0x01, 0x07, 0x09, 0x00, 0x00, 0x00, 0x00, 0x02, 0x01, 'k'},
		},
		{
			name: "predecessor",
			req:  request{ID: 1, Op: opPredecessor, Txn: 2, Key: keyspace.High()},
			want: []byte{0x02, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x03},
		},
		{
			name: "successor",
			req:  request{ID: 1, Op: opSuccessor, Txn: 2, Key: keyspace.Low()},
			want: []byte{0x03, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x01},
		},
		{
			name: "predecessor_batch",
			req:  request{ID: 1, Op: opPredecessorBatch, Txn: 2, Key: keyspace.New("b"), Count: 17},
			want: []byte{0x04, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x02, 0x01, 'b', 0x11},
		},
		{
			name: "successor_batch",
			req:  request{ID: 1, Op: opSuccessorBatch, Txn: 2, Key: keyspace.Low(), Count: 5},
			want: []byte{0x05, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x05},
		},
		{
			name: "insert_big_epoch",
			req:  request{ID: 1, Op: opInsert, Txn: 2, Epoch: 300, Key: keyspace.New("ab"), Version: 3, Value: "xyz"},
			want: []byte{0x06, 0x01, 0x02, 0xac, 0x02, 0x00, 0x00, 0x00, 0x02, 0x02, 'a', 'b', 0x03, 0x03, 'x', 'y', 'z'},
		},
		{
			name: "coalesce_full_range",
			req:  request{ID: 1, Op: opCoalesce, Txn: 2, Key: keyspace.Low(), Hi: keyspace.High(), Version: 5},
			want: []byte{0x07, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x03, 0x05},
		},
		{
			name: "prepare_deadline",
			req:  request{ID: 200, Op: opPrepare, Txn: 300, Deadline: 1, Writers: 3},
			want: []byte{0x08, 0xc8, 0x01, 0xac, 0x02, 0x00, 0x01, 0x00, 0x03},
		},
		{
			name: "commit",
			req:  request{ID: 1, Op: opCommit, Txn: 2},
			want: []byte{0x09, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00},
		},
		{
			name: "abort",
			req:  request{ID: 1, Op: opAbort, Txn: 2},
			want: []byte{0x0a, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00},
		},
		{
			name: "status_bypass_epoch",
			req:  request{ID: 1, Op: opStatus, Txn: 0, Epoch: ^uint64(0)},
			want: []byte{0x0b, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00, 0x00},
		},
		{
			name: "name",
			req:  request{ID: 1, Op: opName},
			want: []byte{0x0c, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00},
		},
		// The marked calls (rep/marks.go): the plain call's tag and
		// fields, one bit in the flags byte; a prepare, the writer count.
		{
			name: "lookup_one_shot",
			req:  request{ID: 7, Op: opLookup, Txn: 9, Epoch: 5, Deadline: 300, Marks: rep.OneShotMark, Key: keyspace.New("k")},
			want: []byte{0x01, 0x07, 0x09, 0x05, 0xac, 0x02, 0x01, 0x00, 0x02, 0x01, 'k'},
		},
		{
			name: "insert_prepare",
			req:  request{ID: 1, Op: opInsert, Txn: 2, Marks: rep.PrepareMark, Writers: 2, Key: keyspace.New("ab"), Version: 3, Value: "xyz"},
			want: []byte{0x06, 0x01, 0x02, 0x00, 0x00, 0x02, 0x02, 0x02, 0x02, 'a', 'b', 0x03, 0x03, 'x', 'y', 'z'},
		},
		{
			name: "coalesce_prepare",
			req:  request{ID: 1, Op: opCoalesce, Txn: 2, Marks: rep.PrepareMark, Writers: 2, Key: keyspace.Low(), Hi: keyspace.High(), Version: 5},
			want: []byte{0x07, 0x01, 0x02, 0x00, 0x00, 0x02, 0x02, 0x01, 0x03, 0x05},
		},
		{
			name: "successor_batch_around",
			req:  request{ID: 1, Op: opSuccessorBatch, Txn: 2, Marks: rep.AroundMark, Key: keyspace.New("k"), Count: 3},
			want: []byte{0x05, 0x01, 0x02, 0x00, 0x00, 0x04, 0x00, 0x02, 0x01, 'k', 0x03},
		},
	}
	for _, v := range reqVectors {
		t.Run("request_"+v.name, func(t *testing.T) {
			got := appendRequest(nil, &v.req)
			if !bytes.Equal(got, v.want) {
				t.Fatalf("encoding drifted:\n got  %#v\n want %#v", got, v.want)
			}
			var back request
			if r := (wireReader{buf: v.want}); r.readRequest(&back) != nil || !reflect.DeepEqual(back, v.req) {
				t.Fatalf("decoding drifted:\n got  %+v (%v)\n want %+v", back, r.err, v.req)
			}
		})
	}

	// tag id code, then the message if the code is not OK, else the op's
	// result fields.
	respVectors := []struct {
		name string
		resp response
		want []byte
	}{
		{
			name: "lookup_found",
			resp: response{ID: 7, Op: opLookup, Code: codeOK, Found: true, Version: 4, Value: "v"},
			want: []byte{0x01, 0x07, 0x00, 0x01, 0x04, 0x01, 'v'},
		},
		{
			name: "lookup_absent",
			resp: response{ID: 7, Op: opLookup, Code: codeOK},
			want: []byte{0x01, 0x07, 0x00, 0x00, 0x00, 0x00},
		},
		{
			name: "predecessor",
			resp: response{ID: 1, Op: opPredecessor, Code: codeOK, Key: keyspace.New("p"), Version: 2, Value: "w", GapVersion: 3},
			want: []byte{0x02, 0x01, 0x00, 0x02, 0x01, 'p', 0x02, 0x01, 'w', 0x03},
		},
		{
			name: "successor_high",
			resp: response{ID: 1, Op: opSuccessor, Code: codeOK, Key: keyspace.High(), GapVersion: 3},
			want: []byte{0x03, 0x01, 0x00, 0x03, 0x00, 0x00, 0x03},
		},
		{
			name: "predecessor_batch",
			resp: response{ID: 1, Op: opPredecessorBatch, Code: codeOK, Neighbors: []rep.NeighborResult{{Key: keyspace.Low(), GapVersion: 2}}},
			want: []byte{0x04, 0x01, 0x00, 0x01, 0x01, 0x00, 0x00, 0x02},
		},
		{
			name: "successor_batch_neighborhood",
			resp: response{ID: 1, Op: opSuccessorBatch, Code: codeOK, Neighbors: []rep.NeighborResult{
				{Key: keyspace.Low(), GapVersion: 2},
				{Key: keyspace.New("k"), Version: 3, Value: "v", GapVersion: 4},
				{Key: keyspace.High(), GapVersion: 4},
			}},
			want: []byte{0x05, 0x01, 0x00, 0x03, 0x01, 0x00, 0x00, 0x02, 0x02, 0x01, 'k', 0x03, 0x01, 'v', 0x04, 0x03, 0x00, 0x00, 0x04},
		},
		{
			name: "insert_ok",
			resp: response{ID: 1, Op: opInsert, Code: codeOK},
			want: []byte{0x06, 0x01, 0x00},
		},
		{
			name: "coalesce_deleted",
			resp: response{ID: 1, Op: opCoalesce, Code: codeOK, DeletedKeys: []keyspace.Key{keyspace.New("a")}},
			want: []byte{0x07, 0x01, 0x00, 0x01, 0x02, 0x01, 'a'},
		},
		{
			name: "prepare_ok",
			resp: response{ID: 1, Op: opPrepare, Code: codeOK},
			want: []byte{0x08, 0x01, 0x00},
		},
		{
			name: "commit_ok",
			resp: response{ID: 1, Op: opCommit, Code: codeOK},
			want: []byte{0x09, 0x01, 0x00},
		},
		{
			name: "abort_ok",
			resp: response{ID: 1, Op: opAbort, Code: codeOK},
			want: []byte{0x0a, 0x01, 0x00},
		},
		{
			name: "status",
			resp: response{ID: 1, Op: opStatus, Code: codeOK, TxnStatus: rep.InDoubtOf(3)},
			want: []byte{0x0b, 0x01, 0x00, 0x1a},
		},
		{
			name: "name",
			resp: response{ID: 1, Op: opName, Code: codeOK, Name: "A"},
			want: []byte{0x0c, 0x01, 0x00, 0x01, 'A'},
		},
		{
			name: "error",
			resp: response{ID: 1, Op: opInsert, Code: codeSentinel, Msg: "no"},
			want: []byte{0x06, 0x01, 0x02, 0x02, 'n', 'o'},
		},
		{
			name: "insert_unknown_txn",
			resp: response{ID: 1, Op: opInsert, Code: codeUnknownTxn, Msg: "no"},
			want: []byte{0x06, 0x01, 0x08, 0x02, 'n', 'o'},
		},
	}
	for _, v := range respVectors {
		t.Run("response_"+v.name, func(t *testing.T) {
			got := appendResponse(nil, &v.resp)
			if !bytes.Equal(got, v.want) {
				t.Fatalf("encoding drifted:\n got  %#v\n want %#v", got, v.want)
			}
		})
	}
}

// wireRequestVariants covers every request op, plain and with each mark
// it takes, with representative field values; wireResponseVariants does
// the same for responses.
func wireRequestVariants() []request {
	reqs := []request{
		{ID: 1, Op: opLookup, Txn: 2, Key: keyspace.New("alpha")},
		{ID: 3, Op: opPredecessor, Txn: 4, Key: keyspace.High()},
		{ID: 5, Op: opSuccessor, Txn: 6, Key: keyspace.Low()},
		{ID: 7, Op: opPredecessorBatch, Txn: 8, Key: keyspace.New("b"), Count: 17},
		{ID: 9, Op: opSuccessorBatch, Txn: 10, Key: keyspace.New(""), Count: 0},
		{ID: 11, Op: opInsert, Txn: 12, Key: keyspace.New("k"), Version: 1 << 40, Value: "value with spaces\x00and zero"},
		{ID: 13, Op: opCoalesce, Txn: 14, Key: keyspace.Low(), Hi: keyspace.New("z"), Version: 7},
		{ID: 15, Op: opPrepare, Txn: 16, Writers: 2},
		{ID: 17, Op: opCommit, Txn: 18},
		{ID: 19, Op: opAbort, Txn: 20},
		{ID: 21, Op: opStatus, Txn: 22},
		{ID: 23, Op: opName},
		{ID: 25, Op: opLookup, Txn: 26, Marks: rep.OneShotMark, Key: keyspace.New("alpha")},
		{ID: 27, Op: opInsert, Txn: 28, Marks: rep.PrepareMark, Writers: 3, Key: keyspace.New("k"), Version: 9, Value: "v"},
		{ID: 29, Op: opCoalesce, Txn: 30, Marks: rep.PrepareMark, Writers: 1, Key: keyspace.New("a"), Hi: keyspace.High(), Version: 7},
		{ID: 31, Op: opSuccessorBatch, Txn: 32, Marks: rep.AroundMark, Key: keyspace.New("k"), Count: rep.MaxBatch},
	}
	for i := range reqs {
		reqs[i].Epoch = uint64(i * 3)
		reqs[i].Deadline = uint64(i * 50_000)
	}
	return reqs
}

func wireResponseVariants() []response {
	return []response{
		{ID: 1, Op: opLookup, Found: true, Version: 9, Value: "v"},
		{ID: 2, Op: opLookup, Found: false},
		{ID: 3, Op: opPredecessor, Key: keyspace.New("p"), Version: 1, Value: "x", GapVersion: 2},
		{ID: 4, Op: opSuccessor, Key: keyspace.High(), Version: 1, GapVersion: 1 << 50},
		{ID: 5, Op: opPredecessorBatch, Neighbors: []rep.NeighborResult{
			{Key: keyspace.Low(), Version: 1, Value: "", GapVersion: 2},
			{Key: keyspace.New("n"), Version: 3, Value: "nv", GapVersion: 4},
		}},
		{ID: 6, Op: opSuccessorBatch},
		{ID: 7, Op: opInsert},
		{ID: 8, Op: opCoalesce, DeletedKeys: []keyspace.Key{keyspace.New("a"), keyspace.New("b")}},
		{ID: 9, Op: opCoalesce},
		{ID: 10, Op: opPrepare},
		{ID: 11, Op: opCommit},
		{ID: 12, Op: opAbort},
		{ID: 13, Op: opStatus, TxnStatus: rep.TxnStatus(1)},
		{ID: 14, Op: opName, Name: "rep-a"},
		{ID: 15, Op: opInsert, Code: codeSentinel, Msg: "cannot overwrite sentinel"},
		{ID: 16, Op: opLookup, Code: codeUnavailable, Msg: "down"},
		{ID: 17, Op: opInsert, Code: codeUnknownTxn, Msg: "restarted"},
		{ID: 18, Op: opSuccessorBatch, Neighbors: []rep.NeighborResult{
			{Key: keyspace.New("j"), Version: 1, Value: "jv", GapVersion: 2},
			{Key: keyspace.New("k"), Version: 3, Value: "kv", GapVersion: 4},
			{Key: keyspace.High(), GapVersion: 4},
		}},
	}
}

// TestWireRoundTrip encodes and decodes every request and response
// variant, coalesced into one frame.
func TestWireRoundTrip(t *testing.T) {
	reqs := wireRequestVariants()
	var buf []byte
	for i := range reqs {
		buf = appendRequest(buf, &reqs[i])
	}
	r := wireReader{buf: buf}
	for i := range reqs {
		var got request
		if err := r.readRequest(&got); err != nil {
			t.Fatalf("request %d (%v): %v", i, reqs[i].Op, err)
		}
		if !reflect.DeepEqual(got, reqs[i]) {
			t.Fatalf("request round-trip mismatch:\n got  %+v\n want %+v", got, reqs[i])
		}
	}
	if r.remaining() != 0 {
		t.Fatalf("%d bytes left over after decoding all requests", r.remaining())
	}

	resps := wireResponseVariants()
	buf = buf[:0]
	for i := range resps {
		buf = appendResponse(buf, &resps[i])
	}
	r = wireReader{buf: buf}
	for i := range resps {
		var got response
		if err := r.readResponse(&got); err != nil {
			t.Fatalf("response %d (%v): %v", i, resps[i].Op, err)
		}
		if !reflect.DeepEqual(got, resps[i]) {
			t.Fatalf("response round-trip mismatch:\n got  %+v\n want %+v", got, resps[i])
		}
	}
	if r.remaining() != 0 {
		t.Fatalf("%d bytes left over after decoding all responses", r.remaining())
	}
}

// TestWireRefusesOversizedBatch: a batch count is the size of the reply
// the representative allocates, so the request decoder admits the page,
// rep.MaxBatch, and nothing above it — under both batch tags, marked or
// not.
func TestWireRefusesOversizedBatch(t *testing.T) {
	for _, req := range []request{{Op: opPredecessorBatch}, {Op: opSuccessorBatch}, {Op: opSuccessorBatch, Marks: rep.AroundMark}} {
		for _, tc := range []struct {
			count int
			ok    bool
		}{{rep.MaxBatch, true}, {rep.MaxBatch + 1, false}, {1 << 20, false}} {
			req.ID, req.Txn, req.Key, req.Count = 1, 2, keyspace.New("k"), tc.count
			r := wireReader{buf: appendRequest(nil, &req)}
			var got request
			err := r.readRequest(&got)
			if tc.ok && (err != nil || got.Count != tc.count) {
				t.Errorf("tag %d marks %#x count %d: decoded %d, %v", req.Op, req.Marks, tc.count, got.Count, err)
			}
			if !tc.ok && !errors.Is(err, errWire) {
				t.Errorf("tag %d marks %#x count %d: error = %v, want a refused frame", req.Op, req.Marks, tc.count, err)
			}
		}
	}
}

// TestWireRefusesStrayMarks: the request decoder admits, under each tag,
// the marks that op takes and no other bit of the flags byte — a mark
// dropped in silence would change what the call does.
func TestWireRefusesStrayMarks(t *testing.T) {
	for o := opLookup; o <= opName; o++ {
		for bit := rep.Marks(1); bit != 0; bit <<= 1 {
			req := request{ID: 1, Op: o, Txn: 2, Marks: bit, Key: keyspace.New("k"), Hi: keyspace.New("z")}
			r := wireReader{buf: appendRequest(nil, &req)}
			var got request
			err := r.readRequest(&got)
			if taken := o.marks()&bit != 0; taken && (err != nil || got.Marks != bit) {
				t.Errorf("tag %d marks %#x: decoded %#x, %v", o, bit, got.Marks, err)
			} else if !taken && !errors.Is(err, errWire) {
				t.Errorf("tag %d marks %#x: error = %v, want a refused frame", o, bit, err)
			}
		}
	}
}

// TestExpectMarksOnInsertOnly: the expectation marks ride an Insert and
// nothing else — a member checks them only where it applies a write at
// one key — and an Insert takes both.
func TestExpectMarksOnInsertOnly(t *testing.T) {
	for o := opLookup; o <= opName; o++ {
		for _, m := range []rep.Marks{rep.ExpectEntryMark, rep.ExpectGapMark} {
			if got := o.marks()&m != 0; got != (o == opInsert) {
				t.Errorf("tag %d takes mark %#x: %v", o, m, got)
			}
		}
	}
}

// TestContinuingMarkOnDataOps: every data call may say it is not its
// transaction's first at the member, and no other may: Prepare, Commit
// and Abort answer a transaction the member does not know by rules of
// their own, and Status only asks about one.
func TestContinuingMarkOnDataOps(t *testing.T) {
	for o := opLookup; o <= opName; o++ {
		data := o < opPrepare
		if got := o.marks()&rep.ContinuingMark != 0; got != data {
			t.Errorf("tag %d takes the continuing mark: %v", o, got)
		}
		req := request{ID: 1, Op: o, Txn: 2, Marks: rep.ContinuingMark, Key: keyspace.New("k"), Hi: keyspace.New("z"), Count: 1}
		r := wireReader{buf: appendRequest(nil, &req)}
		var got request
		err := r.readRequest(&got)
		if data && (err != nil || got.Marks != rep.ContinuingMark) {
			t.Errorf("tag %d continuing: decoded %#x, %v", o, got.Marks, err)
		} else if !data && !errors.Is(err, errWire) {
			t.Errorf("tag %d continuing: error = %v, want a refused frame", o, err)
		}
	}
}

// TestWireRefusesStrayWriterCount: a writer count is admitted on a call
// that carries a prepare — Prepare, or a write with the prepare mark —
// and refused on any other. A count above rep.MaxWriters is refused on
// every call: a status could not carry it back.
func TestWireRefusesStrayWriterCount(t *testing.T) {
	for o := opLookup; o <= opName; o++ {
		for _, marks := range []rep.Marks{0, o.marks()} {
			for _, n := range []uint64{2, rep.MaxWriters, rep.MaxWriters + 1, math.MaxUint64} {
				req := request{ID: 1, Op: o, Txn: 2, Marks: marks, Writers: n, Key: keyspace.New("k"), Hi: keyspace.New("z")}
				r := wireReader{buf: appendRequest(nil, &req)}
				var got request
				err := r.readRequest(&got)
				if o.prepares(marks) && n <= rep.MaxWriters {
					if err != nil || got.Writers != n {
						t.Errorf("tag %d marks %#x writers %d: decoded %d, %v", o, marks, n, got.Writers, err)
					}
				} else if !errors.Is(err, errWire) {
					t.Errorf("tag %d marks %#x writers %d: error = %v, want a refused frame", o, marks, n, err)
				}
			}
		}
	}
}

// TestWireTruncatedInputs feeds every prefix of valid messages to the
// decoders: each must error cleanly, never panic or read out of bounds.
func TestWireTruncatedInputs(t *testing.T) {
	reqs := wireRequestVariants()
	for i := range reqs {
		full := appendRequest(nil, &reqs[i])
		for n := 0; n < len(full); n++ {
			r := wireReader{buf: full[:n]}
			var got request
			if err := r.readRequest(&got); err == nil {
				t.Fatalf("request %v truncated to %d/%d bytes decoded without error", reqs[i].Op, n, len(full))
			}
		}
	}
	resps := wireResponseVariants()
	for i := range resps {
		full := appendResponse(nil, &resps[i])
		for n := 0; n < len(full); n++ {
			r := wireReader{buf: full[:n]}
			var got response
			if err := r.readResponse(&got); err == nil {
				t.Fatalf("response %v truncated to %d/%d bytes decoded without error", resps[i].Op, n, len(full))
			}
		}
	}
}
