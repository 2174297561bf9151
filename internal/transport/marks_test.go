package transport

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// markSpy is a served directory that notes which call marks arrive.
type markSpy struct {
	*rep.Rep
	mu   sync.Mutex
	seen []string
}

func (d *markSpy) note(call string, ctx context.Context) {
	if rep.OneShot(ctx) {
		call += "+once"
	}
	if rep.PrepareRides(ctx) {
		call += "+prepare"
	}
	if rep.Around(ctx) {
		call += "+around"
	}
	if rep.Continuing(ctx) {
		call += "+cont"
	}
	d.mu.Lock()
	d.seen = append(d.seen, call)
	d.mu.Unlock()
}

func (d *markSpy) Lookup(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	d.note("lookup", ctx)
	return d.Rep.Lookup(ctx, id, key)
}

func (d *markSpy) Insert(ctx context.Context, id lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	d.note("insert", ctx)
	return d.Rep.Insert(ctx, id, key, ver, value)
}

func (d *markSpy) Coalesce(ctx context.Context, id lock.TxnID, lo, hi keyspace.Key, ver version.V) (rep.CoalesceResult, error) {
	d.note("coalesce", ctx)
	return d.Rep.Coalesce(ctx, id, lo, hi, ver)
}

func (d *markSpy) SuccessorBatch(ctx context.Context, id lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	d.note("successors", ctx)
	return d.Rep.SuccessorBatch(ctx, id, key, max)
}

// TestCallMarksCrossTheWire: the one-shot, prepare, neighborhood and
// continuing marks set on the caller's context reach the served
// representative, over TCP and through Local, and an unmarked call
// arrives unmarked.
func TestCallMarksCrossTheWire(t *testing.T) {
	ctx := context.Background()
	drive := func(t *testing.T, d rep.Directory, spy *markSpy) {
		t.Helper()
		key, hi := keyspace.New("k"), keyspace.New("m")
		if _, err := d.Lookup(rep.MarkOneShot(ctx), 5, key); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Lookup(ctx, 7, key); err != nil {
			t.Fatal(err)
		}
		if err := d.Insert(&rep.Marked{Context: ctx, Marks: rep.ContinuingMark}, 7, hi, 1, "v"); err != nil {
			t.Fatal(err)
		}
		if err := d.Insert(rep.MarkWriters(rep.MarkPrepare(ctx), 1), 7, key, 1, "v"); err != nil {
			t.Fatal(err)
		}
		if err := d.Commit(ctx, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Lookup(ctx, 9, keyspace.Low()); err != nil {
			t.Fatal(err)
		}
		// The writer count rides with the prepare, and comes back in the
		// in-doubt status.
		if _, err := d.Coalesce(rep.MarkWriters(rep.MarkPrepare(ctx), 3), 9, keyspace.Low(), hi, 2); err != nil {
			t.Fatal(err)
		}
		if st, err := d.Status(ctx, 9); err != nil || st != rep.InDoubtOf(3) {
			t.Fatalf("status after coalesce+prepare = %v, %v; want in doubt of 3 writers", st, err)
		}
		if err := d.Commit(ctx, 9); err != nil {
			t.Fatal(err)
		}
		// The neighborhood of hi, which the coalesce left alone between
		// the sentinels; unmarked, its successors only.
		hood, err := d.SuccessorBatch(rep.MarkAround(ctx), 11, hi, 2)
		if err != nil || len(hood) != 3 || !hood[0].Key.IsLow() || !hood[1].Key.Equal(hi) || hood[1].Value != "v" || !hood[2].Key.IsHigh() {
			t.Fatalf("neighborhood of %s = %+v, %v; want LOW, the entry, HIGH", hi, hood, err)
		}
		if up, err := d.SuccessorBatch(ctx, 11, hi, 2); err != nil || len(up) != 1 || !up[0].Key.IsHigh() {
			t.Fatalf("successors of %s = %+v, %v; want HIGH", hi, up, err)
		}
		if err := d.Abort(ctx, 11); err != nil {
			t.Fatal(err)
		}
		want := "lookup+once lookup insert+cont insert+prepare lookup coalesce+prepare successors+around successors"
		spy.mu.Lock()
		got := strings.Join(spy.seen, " ")
		spy.mu.Unlock()
		if got != want {
			t.Fatalf("served calls = %q, want %q", got, want)
		}
		if n := spy.Locks().ActiveTransactions(); n != 0 {
			t.Fatalf("%d transactions still hold locks", n)
		}
	}
	t.Run("local", func(t *testing.T) {
		spy := &markSpy{Rep: rep.New("A")}
		drive(t, NewLocal(spy), spy)
	})
	t.Run("tcp", func(t *testing.T) {
		spy := &markSpy{Rep: rep.New("A")}
		srv, err := Serve(spy, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		drive(t, c, spy)
	})
}

// TestUnknownTagFailsPromptly: a server that does not know a request's
// tag or one of its marks, or is sent a mark on an op that does not take
// it, must cost the caller an error at once, not its deadline. The
// server cannot skip a message whose layout it does not know, and must
// not run a call whose mark it would drop, so it closes the connection
// and the call fails as unavailable. The tag after the newest and one
// from further off; a flag from the future; OneShot on an Insert.
func TestUnknownTagFailsPromptly(t *testing.T) {
	srv, err := Serve(rep.New("A"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for name, req := range map[string]request{
		"tag_13":          {Op: opName + 1, Txn: 1, Key: keyspace.New("k"), Count: 1},
		"tag_99":          {Op: 99, Txn: 1, Key: keyspace.New("k"), Count: 1},
		"future_flag":     {Op: opLookup, Txn: 1, Marks: rep.OneShotMark | 0x80, Key: keyspace.New("k")},
		"misplaced_marks": {Op: opInsert, Txn: 1, Marks: rep.OneShotMark, Key: keyspace.New("k"), Version: 1, Value: "v"},
	} {
		t.Run(name, func(t *testing.T) {
			// The request as it stands, past what call would make of it.
			cc, err := c.ensureConn(ctx)
			if err != nil {
				t.Fatal(err)
			}
			pc := &pendingCall{req: req, ready: make(chan struct{}, 1)}
			pc.req.ID = c.nextID.Add(1)
			if !cc.register(pc) {
				t.Fatal("the connection broke before the call")
			}
			if err := cc.fw.enqueue(outMsg{req: &pc.req}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-pc.ready:
				if !errors.Is(pc.err, ErrUnavailable) {
					t.Errorf("refused call = %+v, %v; want ErrUnavailable", pc.resp, pc.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the refused call hung")
			}
			// The client is still usable: the next call redials.
			if _, err := c.Lookup(ctx, 2, keyspace.New("k")); err != nil {
				t.Fatalf("call after the refused one: %v", err)
			}
			if err := c.Abort(ctx, 2); err != nil {
				t.Fatal(err)
			}
			c.mu.Lock()
			redialed := c.cc != cc
			c.mu.Unlock()
			if !redialed || !cc.isBroken() {
				t.Error("the connection that carried the refused call is still in use")
			}
		})
	}
}
