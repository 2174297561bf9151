package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// TestWireGoldenVectors pins the binary encoding byte-for-byte. These
// vectors are the on-wire contract: if one of them changes, old and new
// builds can no longer talk, so a failure here means "bump the wire
// version", never "update the expected bytes".
func TestWireGoldenVectors(t *testing.T) {
	reqVectors := []struct {
		name string
		req  request
		want []byte
	}{
		{
			name: "lookup",
			req:  request{ID: 7, Op: opLookup, Txn: 9, Key: keyspace.New("k")},
			want: []byte{0x01, 0x07, 0x09, 0x02, 0x01, 'k'},
		},
		{
			name: "successor_batch",
			req:  request{ID: 1, Op: opSuccessorBatch, Txn: 2, Key: keyspace.Low(), Count: 5},
			want: []byte{0x05, 0x01, 0x02, 0x01, 0x05},
		},
		{
			name: "insert",
			req:  request{ID: 1, Op: opInsert, Txn: 2, Key: keyspace.New("ab"), Version: 3, Value: "xyz"},
			want: []byte{0x06, 0x01, 0x02, 0x02, 0x02, 'a', 'b', 0x03, 0x03, 'x', 'y', 'z'},
		},
		{
			name: "coalesce_full_range",
			req:  request{ID: 1, Op: opCoalesce, Txn: 2, Key: keyspace.Low(), Hi: keyspace.High(), Version: 5},
			want: []byte{0x07, 0x01, 0x02, 0x01, 0x03, 0x05},
		},
		{
			name: "prepare",
			req:  request{ID: 200, Op: opPrepare, Txn: 300},
			want: []byte{0x08, 0xc8, 0x01, 0xac, 0x02},
		},
		// The marked calls (rep/marks.go): a tag of their own, the plain
		// call's fields.
		{
			name: "lookup_once",
			req:  request{ID: 7, Op: opLookupOnce, Txn: 9, Key: keyspace.New("k")},
			want: []byte{0x0d, 0x07, 0x09, 0x02, 0x01, 'k'},
		},
		{
			name: "insert_prepare",
			req:  request{ID: 1, Op: opInsertPrepare, Txn: 2, Key: keyspace.New("ab"), Version: 3, Value: "xyz"},
			want: []byte{0x0e, 0x01, 0x02, 0x02, 0x02, 'a', 'b', 0x03, 0x03, 'x', 'y', 'z'},
		},
		{
			name: "coalesce_prepare",
			req:  request{ID: 1, Op: opCoalescePrepare, Txn: 2, Key: keyspace.Low(), Hi: keyspace.High(), Version: 5},
			want: []byte{0x0f, 0x01, 0x02, 0x01, 0x03, 0x05},
		},
		{
			name: "successor_batch_around",
			req:  request{ID: 1, Op: opSuccessorBatchAround, Txn: 2, Key: keyspace.New("k"), Count: 3},
			want: []byte{0x10, 0x01, 0x02, 0x02, 0x01, 'k', 0x03},
		},
	}
	for _, v := range reqVectors {
		t.Run("request_v1_"+v.name, func(t *testing.T) {
			got := appendRequest(nil, &v.req, 1)
			if !bytes.Equal(got, v.want) {
				t.Fatalf("encoding drifted:\n got  %#v\n want %#v", got, v.want)
			}
		})
	}

	// Version 2 adds the epoch uvarint after the txn in the request
	// header; everything else is the v1 layout.
	reqV2Vectors := []struct {
		name string
		req  request
		want []byte
	}{
		{
			name: "lookup_epoch",
			req:  request{ID: 7, Op: opLookup, Txn: 9, Epoch: 5, Key: keyspace.New("k")},
			want: []byte{0x01, 0x07, 0x09, 0x05, 0x02, 0x01, 'k'},
		},
		{
			name: "lookup_no_epoch",
			req:  request{ID: 7, Op: opLookup, Txn: 9, Key: keyspace.New("k")},
			want: []byte{0x01, 0x07, 0x09, 0x00, 0x02, 0x01, 'k'},
		},
		{
			name: "insert_big_epoch",
			req:  request{ID: 1, Op: opInsert, Txn: 2, Epoch: 300, Key: keyspace.New("ab"), Version: 3, Value: "xyz"},
			want: []byte{0x06, 0x01, 0x02, 0xac, 0x02, 0x02, 0x02, 'a', 'b', 0x03, 0x03, 'x', 'y', 'z'},
		},
		{
			name: "status_bypass_epoch",
			req:  request{ID: 1, Op: opStatus, Txn: 0, Epoch: ^uint64(0)},
			want: []byte{0x0b, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		},
	}
	for _, v := range reqV2Vectors {
		t.Run("request_v2_"+v.name, func(t *testing.T) {
			got := appendRequest(nil, &v.req, 2)
			if !bytes.Equal(got, v.want) {
				t.Fatalf("encoding drifted:\n got  %#v\n want %#v", got, v.want)
			}
		})
	}

	// Version 3 adds the remaining-deadline-budget uvarint (microseconds,
	// 0 = none) after the epoch in the request header; everything else is
	// the v2 layout.
	reqV3Vectors := []struct {
		name string
		req  request
		want []byte
	}{
		{
			name: "lookup_deadline",
			req:  request{ID: 7, Op: opLookup, Txn: 9, Epoch: 5, Deadline: 300, Key: keyspace.New("k")},
			want: []byte{0x01, 0x07, 0x09, 0x05, 0xac, 0x02, 0x02, 0x01, 'k'},
		},
		{
			name: "lookup_no_deadline",
			req:  request{ID: 7, Op: opLookup, Txn: 9, Key: keyspace.New("k")},
			want: []byte{0x01, 0x07, 0x09, 0x00, 0x00, 0x02, 0x01, 'k'},
		},
		{
			name: "prepare_deadline",
			req:  request{ID: 200, Op: opPrepare, Txn: 300, Deadline: 1},
			want: []byte{0x08, 0xc8, 0x01, 0xac, 0x02, 0x00, 0x01},
		},
		{
			name: "lookup_once_epoch_deadline",
			req:  request{ID: 7, Op: opLookupOnce, Txn: 9, Epoch: 5, Deadline: 300, Key: keyspace.New("k")},
			want: []byte{0x0d, 0x07, 0x09, 0x05, 0xac, 0x02, 0x02, 0x01, 'k'},
		},
		{
			name: "successor_batch_around_epoch_deadline",
			req:  request{ID: 1, Op: opSuccessorBatchAround, Txn: 2, Epoch: 5, Deadline: 300, Key: keyspace.New("k"), Count: 1},
			want: []byte{0x10, 0x01, 0x02, 0x05, 0xac, 0x02, 0x02, 0x01, 'k', 0x01},
		},
	}
	for _, v := range reqV3Vectors {
		t.Run("request_v3_"+v.name, func(t *testing.T) {
			got := appendRequest(nil, &v.req, 3)
			if !bytes.Equal(got, v.want) {
				t.Fatalf("encoding drifted:\n got  %#v\n want %#v", got, v.want)
			}
		})
	}

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
			name: "predecessor",
			resp: response{ID: 1, Op: opPredecessor, Code: codeOK, Key: keyspace.New("p"), Version: 2, Value: "w", GapVersion: 3},
			want: []byte{0x02, 0x01, 0x00, 0x02, 0x01, 'p', 0x02, 0x01, 'w', 0x03},
		},
		{
			name: "status",
			resp: response{ID: 1, Op: opStatus, Code: codeOK, TxnStatus: rep.TxnStatus(2)},
			want: []byte{0x0b, 0x01, 0x00, 0x02},
		},
		{
			name: "error",
			resp: response{ID: 1, Op: opInsert, Code: codeSentinel, Msg: "no"},
			want: []byte{0x06, 0x01, 0x02, 0x02, 'n', 'o'},
		},
		{
			name: "lookup_once_found",
			resp: response{ID: 7, Op: opLookupOnce, Code: codeOK, Found: true, Version: 4, Value: "v"},
			want: []byte{0x0d, 0x07, 0x00, 0x01, 0x04, 0x01, 'v'},
		},
		{
			name: "insert_prepare_ok",
			resp: response{ID: 1, Op: opInsertPrepare, Code: codeOK},
			want: []byte{0x0e, 0x01, 0x00},
		},
		{
			name: "coalesce_prepare_deleted",
			resp: response{ID: 1, Op: opCoalescePrepare, Code: codeOK, DeletedKeys: []keyspace.Key{keyspace.New("a")}},
			want: []byte{0x0f, 0x01, 0x00, 0x01, 0x02, 0x01, 'a'},
		},
		{
			name: "successor_batch_around_neighborhood",
			resp: response{ID: 1, Op: opSuccessorBatchAround, Code: codeOK, Neighbors: []rep.NeighborResult{
				{Key: keyspace.Low(), GapVersion: 2},
				{Key: keyspace.New("k"), Version: 3, Value: "v", GapVersion: 4},
				{Key: keyspace.High(), GapVersion: 4},
			}},
			want: []byte{0x10, 0x01, 0x00, 0x03, 0x01, 0x00, 0x00, 0x02, 0x02, 0x01, 'k', 0x03, 0x01, 'v', 0x04, 0x03, 0x00, 0x00, 0x04},
		},
		{
			name: "insert_prepare_unknown_txn",
			resp: response{ID: 1, Op: opInsertPrepare, Code: codeUnknownTxn, Msg: "no"},
			want: []byte{0x0e, 0x01, 0x08, 0x02, 'n', 'o'},
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

// wireRequestVariants covers every request op with representative field
// values; wireResponseVariants does the same for responses.
func wireRequestVariants() []request {
	return []request{
		{ID: 1, Op: opLookup, Txn: 2, Key: keyspace.New("alpha")},
		{ID: 3, Op: opPredecessor, Txn: 4, Key: keyspace.High()},
		{ID: 5, Op: opSuccessor, Txn: 6, Key: keyspace.Low()},
		{ID: 7, Op: opPredecessorBatch, Txn: 8, Key: keyspace.New("b"), Count: 17},
		{ID: 9, Op: opSuccessorBatch, Txn: 10, Key: keyspace.New(""), Count: 0},
		{ID: 11, Op: opInsert, Txn: 12, Key: keyspace.New("k"), Version: 1 << 40, Value: "value with spaces\x00and zero"},
		{ID: 13, Op: opCoalesce, Txn: 14, Key: keyspace.Low(), Hi: keyspace.New("z"), Version: 7},
		{ID: 15, Op: opPrepare, Txn: 16},
		{ID: 17, Op: opCommit, Txn: 18},
		{ID: 19, Op: opAbort, Txn: 20},
		{ID: 21, Op: opStatus, Txn: 22},
		{ID: 23, Op: opName},
		{ID: 25, Op: opLookupOnce, Txn: 26, Key: keyspace.New("alpha")},
		{ID: 27, Op: opInsertPrepare, Txn: 28, Key: keyspace.New("k"), Version: 9, Value: "v"},
		{ID: 29, Op: opCoalescePrepare, Txn: 30, Key: keyspace.New("a"), Hi: keyspace.High(), Version: 7},
		{ID: 31, Op: opSuccessorBatchAround, Txn: 32, Key: keyspace.New("k"), Count: rep.MaxBatch},
	}
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
		{ID: 17, Op: opLookupOnce, Found: true, Version: 9, Value: "v"},
		{ID: 18, Op: opInsertPrepare},
		{ID: 19, Op: opCoalescePrepare, DeletedKeys: []keyspace.Key{keyspace.New("a")}},
		{ID: 20, Op: opInsertPrepare, Code: codeUnknownTxn, Msg: "restarted"},
		{ID: 21, Op: opSuccessorBatchAround, Neighbors: []rep.NeighborResult{
			{Key: keyspace.New("j"), Version: 1, Value: "jv", GapVersion: 2},
			{Key: keyspace.New("k"), Version: 3, Value: "kv", GapVersion: 4},
			{Key: keyspace.High(), GapVersion: 4},
		}},
	}
}

// TestWireRoundTrip encodes and decodes every request and response
// variant, alone and coalesced into one frame.
func TestWireRoundTrip(t *testing.T) {
	for _, ver := range []byte{1, 2, 3} {
		reqs := wireRequestVariants()
		if ver >= 2 {
			for i := range reqs {
				reqs[i].Epoch = uint64(i * 3)
			}
		}
		if ver >= 3 {
			for i := range reqs {
				reqs[i].Deadline = uint64(i * 50_000)
			}
		}
		var buf []byte
		for i := range reqs {
			buf = appendRequest(buf, &reqs[i], ver)
		}
		r := wireReader{buf: buf}
		for i := range reqs {
			var got request
			if err := r.readRequest(&got, ver); err != nil {
				t.Fatalf("v%d request %d (%v): %v", ver, i, reqs[i].Op, err)
			}
			if !reflect.DeepEqual(got, reqs[i]) {
				t.Fatalf("v%d request round-trip mismatch:\n got  %+v\n want %+v", ver, got, reqs[i])
			}
		}
		if r.remaining() != 0 {
			t.Fatalf("v%d: %d bytes left over after decoding all requests", ver, r.remaining())
		}
	}

	resps := wireResponseVariants()
	var buf []byte
	for i := range resps {
		buf = appendResponse(buf, &resps[i])
	}
	r := wireReader{buf: buf}
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
// rep.MaxBatch, and nothing above it — under all three batch tags, at
// every codec version.
func TestWireRefusesOversizedBatch(t *testing.T) {
	for _, o := range []op{opPredecessorBatch, opSuccessorBatch, opSuccessorBatchAround} {
		for _, ver := range []byte{1, 2, 3} {
			for _, tc := range []struct {
				count int
				ok    bool
			}{{rep.MaxBatch, true}, {rep.MaxBatch + 1, false}, {1 << 20, false}} {
				req := request{ID: 1, Op: o, Txn: 2, Key: keyspace.New("k"), Count: tc.count}
				r := wireReader{buf: appendRequest(nil, &req, ver)}
				var got request
				err := r.readRequest(&got, ver)
				if tc.ok && (err != nil || got.Count != tc.count) {
					t.Errorf("tag %d v%d count %d: decoded %d, %v", o, ver, tc.count, got.Count, err)
				}
				if !tc.ok && !errors.Is(err, errWire) {
					t.Errorf("tag %d v%d count %d: error = %v, want a refused frame", o, ver, tc.count, err)
				}
			}
		}
	}
}

// TestWireTruncatedInputs feeds every prefix of valid messages to the
// decoders: each must error cleanly, never panic or read out of bounds.
func TestWireTruncatedInputs(t *testing.T) {
	reqs := wireRequestVariants()
	for _, ver := range []byte{1, 2, 3} {
		for i := range reqs {
			full := appendRequest(nil, &reqs[i], ver)
			for n := 0; n < len(full); n++ {
				r := wireReader{buf: full[:n]}
				var got request
				if err := r.readRequest(&got, ver); err == nil {
					t.Fatalf("v%d request %v truncated to %d/%d bytes decoded without error", ver, reqs[i].Op, n, len(full))
				}
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

// TestProtocolNegotiation covers the mixed-version matrix: new client ↔
// new server speaks binary; a pinned-gob client against a new server
// and a new client against a gob-only (legacy) server both land on gob
// and still serve calls.
func TestProtocolNegotiation(t *testing.T) {
	cases := []struct {
		name      string
		srvOpts   []ServerOption
		dialOpts  []DialOption
		wantProto string
	}{
		{"binary_binary", nil, nil, ProtoBinary},
		{"gob_client_new_server", nil, []DialOption{WithGobProtocol()}, ProtoGob},
		{"new_client_legacy_server", []ServerOption{WithGobOnly()}, nil, ProtoGob},
		{"gob_client_legacy_server", []ServerOption{WithGobOnly()}, []DialOption{WithGobProtocol()}, ProtoGob},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := Serve(rep.New("nego"), "127.0.0.1:0", tc.srvOpts...)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c, err := Dial(srv.Addr(), tc.dialOpts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got := c.Protocol(); got != tc.wantProto {
				t.Fatalf("negotiated protocol = %q, want %q", got, tc.wantProto)
			}
			// The negotiated connection must actually carry traffic.
			if err := c.Insert(ctx, 1, keyspace.New("k"), 1, "v"); err != nil {
				t.Fatal(err)
			}
			if err := c.Commit(ctx, 1); err != nil {
				t.Fatal(err)
			}
			res, err := c.Lookup(ctx, 2, keyspace.New("k"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found || res.Value != "v" {
				t.Fatalf("lookup over %s = %+v, want found v", tc.wantProto, res)
			}
			c.Abort(ctx, 2)
			if tc.wantProto == ProtoBinary {
				if sent := c.WireStats().Sent(); sent.Frames == 0 || sent.Msgs == 0 {
					t.Fatalf("binary connection recorded no wire traffic: %+v", sent)
				}
			}
		})
	}
}

// TestNegotiationDowngradeIsSticky checks a client that once met a
// legacy server keeps speaking gob on redials instead of paying a
// failed negotiation per dial.
func TestNegotiationDowngradeIsSticky(t *testing.T) {
	srv, err := Serve(rep.New("sticky"), "127.0.0.1:0", WithGobOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Protocol(); got != ProtoGob {
		t.Fatalf("protocol after first dial = %q, want gob", got)
	}
	c.Close() // drop the connection; the next call redials
	if _, err := c.Lookup(ctx, 1, keyspace.New("k")); err != nil {
		t.Fatal(err)
	}
	c.Abort(ctx, 1)
	if got := c.Protocol(); got != ProtoGob {
		t.Fatalf("protocol after redial = %q, want sticky gob", got)
	}
}

// TestLocalTCPEquivalence drives the same operation sequence through the
// in-process Local transport and a TCP client on each protocol, and
// requires identical results — the codecs must be semantically invisible.
func TestLocalTCPEquivalence(t *testing.T) {
	type outcome struct {
		desc string
		val  any
		err  error
	}
	drive := func(d rep.Directory) []outcome {
		var out []outcome
		add := func(desc string, val any, err error) {
			// Compare error identities, not message spellings: remote
			// errors carry an addr suffix by design.
			for _, sentinel := range []error{rep.ErrSentinel, rep.ErrMissingBound, rep.ErrBadRange,
				rep.ErrNoNeighbor, rep.ErrTxnDecided, rep.ErrUnknownTxn} {
				if errors.Is(err, sentinel) {
					out = append(out, outcome{desc, val, sentinel})
					return
				}
			}
			out = append(out, outcome{desc, val, err})
		}
		ins := func(txn lock.TxnID, k string, ver version.V, v string) {
			add("insert "+k, nil, d.Insert(ctx, txn, keyspace.New(k), ver, v))
		}
		ins(1, "b", 1, "bv")
		ins(1, "d", 1, "dv")
		ins(1, "f", 1, "fv")
		add("commit 1", nil, d.Commit(ctx, 1))
		lr, err := d.Lookup(ctx, 2, keyspace.New("d"))
		add("lookup d", lr, err)
		lr, err = d.Lookup(ctx, 2, keyspace.New("nope"))
		add("lookup nope", lr, err)
		nr, err := d.Predecessor(ctx, 2, keyspace.New("d"))
		add("pred d", nr, err)
		nr, err = d.Successor(ctx, 2, keyspace.New("d"))
		add("succ d", nr, err)
		ns, err := d.SuccessorBatch(ctx, 2, keyspace.Low(), 10)
		add("succ batch", ns, err)
		ns, err = d.PredecessorBatch(ctx, 2, keyspace.High(), 2)
		add("pred batch", ns, err)
		st, err := d.Status(ctx, 2)
		add("status", st, err)
		add("abort 2", nil, d.Abort(ctx, 2))
		cr, err := d.Coalesce(ctx, 3, keyspace.New("a"), keyspace.New("e"), 2)
		add("coalesce", cr, err)
		add("commit 3", nil, d.Commit(ctx, 3))
		// Error paths must map identically over the wire.
		add("insert low", nil, d.Insert(ctx, 4, keyspace.Low(), 9, "x"))
		_, err = d.Coalesce(ctx, 4, keyspace.New("z"), keyspace.New("a"), 9)
		add("coalesce bad range", nil, err)
		add("abort 4", nil, d.Abort(ctx, 4))
		return out
	}

	want := drive(NewLocal(rep.New("ref")))
	for _, proto := range []string{ProtoBinary, ProtoGob} {
		t.Run(proto, func(t *testing.T) {
			srv, err := Serve(rep.New("ref"), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var opts []DialOption
			if proto == ProtoGob {
				opts = append(opts, WithGobProtocol())
			}
			c, err := Dial(srv.Addr(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			got := drive(c)
			if len(got) != len(want) {
				t.Fatalf("outcome count %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].desc != want[i].desc || !reflect.DeepEqual(got[i].val, want[i].val) || !errors.Is(got[i].err, want[i].err) || (got[i].err == nil) != (want[i].err == nil) {
					t.Errorf("step %q over %s:\n got  (%+v, %v)\n want (%+v, %v)",
						want[i].desc, proto, got[i].val, got[i].err, want[i].val, want[i].err)
				}
			}
		})
	}
}

// flakyConn wraps a net.Conn so tests can inject a write failure at an
// arbitrary moment mid-stream.
type flakyConn struct {
	net.Conn
	failWrites atomic.Bool
}

func (f *flakyConn) Write(p []byte) (int, error) {
	if f.failWrites.Load() {
		return 0, errors.New("injected write failure")
	}
	return f.Conn.Write(p)
}

// testWritePoisonFastFail is the regression test for the old
// write-poisoning failure mode: a failed send on the shared connection
// must tear it down and fast-fail every in-flight call, rather than
// leaving callers hung on a stream nobody will ever write again.
func testWritePoisonFastFail(t *testing.T, proto string) {
	cli, srvSide := net.Pipe()
	defer srvSide.Close()
	go io.Copy(io.Discard, srvSide) // absorb sends; never respond

	fc := &flakyConn{Conn: cli}
	c := &Client{addr: "injected"}
	cc := newClientConn(fc, proto, wireVersion, c.addr, 0, 0, &c.stats)
	c.mu.Lock()
	c.cc = cc
	c.mu.Unlock()
	go cc.readLoop(c.addr)

	// Park calls in flight: their sends succeed, and they wait on
	// responses that will never come.
	const parked = 3
	errs := make(chan error, parked+1)
	for i := 0; i < parked; i++ {
		go func(i int) {
			errs <- c.Prepare(ctx, lock.TxnID(i+1))
		}(i)
	}
	time.Sleep(50 * time.Millisecond)

	// Now poison the stream mid-connection and issue one more call.
	fc.failWrites.Store(true)
	go func() { errs <- c.Prepare(ctx, 99) }()

	deadline := time.After(5 * time.Second)
	for i := 0; i < parked+1; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrUnavailable) {
				t.Errorf("call %d = %v, want ErrUnavailable", i, err)
			}
		case <-deadline:
			t.Fatalf("only %d of %d calls returned after a poisoned write; the rest are hung", i, parked+1)
		}
	}
	if !cc.isBroken() {
		t.Error("connection not torn down after write failure")
	}
}

func TestWritePoisonFastFailBinary(t *testing.T) { testWritePoisonFastFail(t, ProtoBinary) }
func TestWritePoisonFastFailGob(t *testing.T)    { testWritePoisonFastFail(t, ProtoGob) }

// TestServerWriteFailureFailsClientFast covers the server half of the
// write-poisoning fix end to end: when the server cannot write a
// response (here: the client's receive direction is shut down), it must
// close the connection so the client's other in-flight calls fail fast
// instead of waiting out the 30s call timeout.
func TestServerWriteFailureFailsClientFast(t *testing.T) {
	dir := slowDir{Directory: rep.New("wfail"), delay: 200 * time.Millisecond}
	srv, err := Serve(dir, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One slow call in flight, then kill the socket out from under the
	// server's pending response write.
	done := make(chan error, 1)
	go func() {
		_, err := c.Lookup(ctx, 1, keyspace.New("slow"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	breakConn(t, c)
	select {
	case err := <-done:
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("in-flight call = %v, want ErrUnavailable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after server-side write failure")
	}
}

// TestFrameWriterBatches drives many concurrent calls over one binary
// connection and checks requests actually coalesce: group commit only
// batches when messages arrive faster than write syscalls drain, so the
// worker count must saturate the single connection.
func TestFrameWriterBatches(t *testing.T) {
	srv, err := Serve(rep.New("batch"), "127.0.0.1:0", WithPerConnConcurrency(256))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), WithBatchWindow(200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 64
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := lock.TxnID(w*perWorker + i + 1)
				if _, err := c.Lookup(ctx, id, keyspace.New(fmt.Sprintf("k%d", w))); err != nil {
					t.Error(err)
					return
				}
				c.Abort(ctx, id)
			}
		}(w)
	}
	wg.Wait()
	sent := c.WireStats().Sent()
	if sent.Msgs == 0 {
		t.Fatal("no wire traffic recorded")
	}
	if sent.Frames >= sent.Msgs {
		t.Errorf("client sent %d frames for %d messages; group commit is not coalescing", sent.Frames, sent.Msgs)
	}
	t.Logf("client: %d msgs in %d frames (%.2f msgs/frame), server tx batch: %v",
		sent.Msgs, sent.Frames, float64(sent.Msgs)/float64(sent.Frames), srv.WireStats().Sent().Batch)
}

// TestMaxBatchOne pins every message to its own frame — the unbatched
// baseline the benchmarks compare against.
func TestMaxBatchOne(t *testing.T) {
	srv, err := Serve(rep.New("nobatch"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), WithMaxBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := lock.TxnID(w*20 + i + 1)
				if _, err := c.Lookup(ctx, id, keyspace.New("k")); err != nil {
					t.Error(err)
					return
				}
				c.Abort(ctx, id)
			}
		}(w)
	}
	wg.Wait()
	sent := c.WireStats().Sent()
	if sent.Frames != sent.Msgs {
		t.Errorf("WithMaxBatch(1): %d frames for %d messages, want 1:1", sent.Frames, sent.Msgs)
	}
}
