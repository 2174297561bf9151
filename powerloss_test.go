package repdir

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repdir/internal/core"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/txn"
	"repdir/internal/version"
	"repdir/internal/wal"
	"repdir/internal/wal/waltest"
)

// replyDropper is a member whose next write carrying the prepare is
// applied, prepared and then answered with ErrUnavailable, as if its
// reply were lost on the way back. It records the transaction.
type replyDropper struct {
	*rep.Rep
	armed   atomic.Bool
	dropped atomic.Uint64
}

func (d *replyDropper) Insert(ctx context.Context, id lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	err := d.Rep.Insert(ctx, id, key, ver, value)
	if err == nil && rep.PrepareRides(ctx) && d.armed.CompareAndSwap(true, false) {
		d.dropped.Store(uint64(id))
		return fmt.Errorf("%w: reply to %s dropped", transport.ErrUnavailable, d.Name())
	}
	return err
}

// powerCut is three members, each logging to a waltest.File under the
// default SyncOnCommit policy, and a suite over them whose quorums are
// always the first two members (A and B): A and B are a point write's
// writers, each taking the prepare on its write, and C is never asked.
type powerCut struct {
	reps  []*rep.Rep
	files []*waltest.File
	a     *replyDropper
	suite *core.Suite
}

func newPowerCut(t *testing.T, retries int) *powerCut {
	t.Helper()
	p := &powerCut{}
	dirs := make([]rep.Directory, 3)
	for i, name := range []string{"A", "B", "C"} {
		f := &waltest.File{}
		r := rep.New(name, rep.WithLog(wal.NewFileLog(f)))
		p.reps, p.files, dirs[i] = append(p.reps, r), append(p.files, f), r
	}
	p.a = &replyDropper{Rep: p.reps[0]}
	dirs[0] = p.a
	cfg := quorum.NewUniform(dirs, 2, 2)
	s, err := core.NewSuite(cfg, core.WithSelector(quorum.NewStickySelector(cfg)), core.WithMaxRetries(retries))
	if err != nil {
		t.Fatal(err)
	}
	p.suite = s
	return p
}

// cut is a power loss at every member at once: each log keeps only what
// an fsync made durable, and each member reopens from that.
func (p *powerCut) cut(t *testing.T) []*rep.Rep {
	t.Helper()
	p.suite.Close()
	dir := t.TempDir()
	var out []*rep.Rep
	for i, r := range p.reps {
		path := filepath.Join(dir, r.Name()+".wal")
		if err := os.WriteFile(path, p.files[i].Bytes()[:p.files[i].Durable()], 0o644); err != nil {
			t.Fatal(err)
		}
		r2, d, err := rep.OpenDurable(r.Name(), path, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		out = append(out, r2)
	}
	return out
}

// lookupAfter reads key through a fresh suite over the reopened members.
func lookupAfter(t *testing.T, reps []*rep.Rep, key string) (string, bool) {
	t.Helper()
	dirs := make([]rep.Directory, len(reps))
	for i, r := range reps {
		dirs[i] = r
	}
	s, err := core.NewSuite(quorum.NewUniform(dirs, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v, found, err := s.Lookup(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	return v, found
}

// TestPowerLoss: a transaction is committed once every writer holds a
// forced prepare record, so the commit record is not forced, and an
// abort is.
//
//   - An acknowledged point Update whose commit records a power cut
//     takes comes back in doubt at both writers, and resolves to commit:
//     the reader sees the new value.
//   - An Update whose prepare reply was lost is aborted at both writers,
//     and the caller told it failed; the same cut keeps the aborts, and
//     it resolves to abort.
//
// Mutation-checked on a copy of the tree: with txn.Resolve's old rule
// (commit only if some participant committed) the first half fails —
// the update resolves to abort and the reader sees "old"; with
// wal.SyncOnCommit not forcing KindAbort the second half fails — both
// writers come back in doubt of 2 writers and the failed update
// resolves to commit.
func TestPowerLoss(t *testing.T) {
	ctx := context.Background()
	t.Run("acknowledged_update_commits", func(t *testing.T) {
		p := newPowerCut(t, 0)
		if err := p.suite.Insert(ctx, "k", "old"); err != nil {
			t.Fatal(err)
		}
		if err := p.suite.Update(ctx, "k", "new"); err != nil {
			t.Fatal(err)
		}
		reps := p.cut(t)
		ids := reps[0].InDoubt()
		if len(ids) != 1 {
			t.Fatalf("A comes back in doubt of %v, want one transaction: the update", ids)
		}
		id := ids[0]
		for _, r := range reps[:2] {
			if st, _ := r.Status(ctx, id); st != rep.InDoubtOf(2) {
				t.Fatalf("%s status of the update = %v, want in doubt of 2 writers", r.Name(), st)
			}
		}
		res, err := txn.Resolve(ctx, id, []rep.Directory{reps[0], reps[1], reps[2]})
		if err != nil || !res.Committed || len(res.Finished) != 2 {
			t.Fatalf("resolve = %+v, %v; want committed at both writers", res, err)
		}
		if v, found := lookupAfter(t, reps, "k"); !found || v != "new" {
			t.Fatalf("lookup after the cut = %q, %v; want the acknowledged update", v, found)
		}
	})
	t.Run("aborted_update_stays_aborted", func(t *testing.T) {
		p := newPowerCut(t, 0)
		if err := p.suite.Insert(ctx, "k", "old"); err != nil {
			t.Fatal(err)
		}
		p.a.armed.Store(true)
		if err := p.suite.Update(ctx, "k", "new"); err == nil {
			t.Fatal("update with a lost prepare reply succeeded")
		}
		id := lock.TxnID(p.a.dropped.Load())
		for _, r := range p.reps[:2] {
			if st, _ := r.Status(ctx, id); st != rep.StatusAborted {
				t.Fatalf("%s status of the failed update = %v, want aborted", r.Name(), st)
			}
		}
		reps := p.cut(t)
		for _, r := range reps {
			if ids := r.InDoubt(); len(ids) != 0 {
				t.Fatalf("%s comes back in doubt of %v, want nothing", r.Name(), ids)
			}
		}
		res, err := txn.Resolve(ctx, id, []rep.Directory{reps[0], reps[1], reps[2]})
		if err != nil || res.Committed {
			t.Fatalf("resolve of the failed update = %+v, %v; want aborted", res, err)
		}
		if v, found := lookupAfter(t, reps, "k"); !found || v != "old" {
			t.Fatalf("lookup after the cut = %q, %v; want the value before the failed update", v, found)
		}
	})
}
