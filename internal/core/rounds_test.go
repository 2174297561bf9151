package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repdir/internal/fault"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/version"
)

// The tests in this file pin what the operations cost in messages to
// representatives and in sequential rounds of them — the paper's
// section 4 unit — by counting at the representatives.

// tape records every call that reaches a set of representatives: which
// member, which call with which marks, and when it began and ended on a
// clock that ticks once per event.
type tape struct {
	mu    sync.Mutex
	clock int
	calls []tapedCall
}

type tapedCall struct {
	member, kind string
	txn          lock.TxnID
	epoch        uint64
	start, end   int
}

func (t *tape) begin(member, kind string, ctx context.Context, id lock.TxnID) int {
	if rep.OneShot(ctx) {
		kind += "+once"
	}
	if rep.PrepareRides(ctx) {
		kind += "+prepare"
	}
	if rep.Around(ctx) {
		kind += "+around"
	}
	if rep.Expects(ctx) {
		kind += "+expect"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock++
	t.calls = append(t.calls, tapedCall{member: member, kind: kind, txn: id, epoch: rep.EpochFromContext(ctx), start: t.clock})
	return len(t.calls) - 1
}

func (t *tape) finish(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock++
	t.calls[i].end = t.clock
}

// take returns the calls recorded since the last take, in start order.
func (t *tape) take() []tapedCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.calls
	t.calls = nil
	return out
}

// kinds is the sequence of call kinds; phases the rounds, each maximal
// run of one kind named once. The suite puts a barrier between rounds, so
// calls of one round never interleave with the next one's however the
// members of a parallel round race each other.
func kinds(calls []tapedCall) []string {
	out := make([]string, len(calls))
	for i, c := range calls {
		out[i] = c.kind
	}
	return out
}

func phases(calls []tapedCall) []string {
	var out []string
	for _, c := range calls {
		if len(out) == 0 || out[len(out)-1] != c.kind {
			out = append(out, c.kind)
		}
	}
	return out
}

// count is the number of calls of one kind.
func count(calls []tapedCall, kind string) int {
	n := 0
	for _, c := range calls {
		if c.kind == kind {
			n++
		}
	}
	return n
}

// membersOf lists, sorted, the members that got a call of one of kinds.
func membersOf(calls []tapedCall, kinds ...string) []string {
	seen := map[string]bool{}
	for _, c := range calls {
		for _, k := range kinds {
			if c.kind == k {
				seen[c.member] = true
			}
		}
	}
	var out []string
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// tapedDir is a rep.Directory that records each call on a tape.
type tapedDir struct {
	inner rep.Directory
	t     *tape
}

var _ rep.Directory = (*tapedDir)(nil)

func (d *tapedDir) Name() string { return d.inner.Name() }

func (d *tapedDir) Lookup(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	defer d.t.finish(d.t.begin(d.Name(), "lookup", ctx, id))
	return d.inner.Lookup(ctx, id, key)
}

func (d *tapedDir) Predecessor(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	defer d.t.finish(d.t.begin(d.Name(), "neighbor", ctx, id))
	return d.inner.Predecessor(ctx, id, key)
}

func (d *tapedDir) Successor(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	defer d.t.finish(d.t.begin(d.Name(), "neighbor", ctx, id))
	return d.inner.Successor(ctx, id, key)
}

func (d *tapedDir) PredecessorBatch(ctx context.Context, id lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	defer d.t.finish(d.t.begin(d.Name(), "neighbor", ctx, id))
	return d.inner.PredecessorBatch(ctx, id, key, max)
}

func (d *tapedDir) SuccessorBatch(ctx context.Context, id lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	defer d.t.finish(d.t.begin(d.Name(), "neighbor", ctx, id))
	return d.inner.SuccessorBatch(ctx, id, key, max)
}

func (d *tapedDir) Insert(ctx context.Context, id lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	defer d.t.finish(d.t.begin(d.Name(), "insert", ctx, id))
	return d.inner.Insert(ctx, id, key, ver, value)
}

func (d *tapedDir) Coalesce(ctx context.Context, id lock.TxnID, lo, hi keyspace.Key, ver version.V) (rep.CoalesceResult, error) {
	defer d.t.finish(d.t.begin(d.Name(), "coalesce", ctx, id))
	return d.inner.Coalesce(ctx, id, lo, hi, ver)
}

func (d *tapedDir) Prepare(ctx context.Context, id lock.TxnID) error {
	defer d.t.finish(d.t.begin(d.Name(), "prepare", ctx, id))
	return d.inner.Prepare(ctx, id)
}

func (d *tapedDir) Commit(ctx context.Context, id lock.TxnID) error {
	defer d.t.finish(d.t.begin(d.Name(), "commit", ctx, id))
	return d.inner.Commit(ctx, id)
}

func (d *tapedDir) Abort(ctx context.Context, id lock.TxnID) error {
	defer d.t.finish(d.t.begin(d.Name(), "abort", ctx, id))
	return d.inner.Abort(ctx, id)
}

func (d *tapedDir) Status(ctx context.Context, id lock.TxnID) (rep.TxnStatus, error) {
	defer d.t.finish(d.t.begin(d.Name(), "status", ctx, id))
	return d.inner.Status(ctx, id)
}

// tapedSuite is a healthy 3-2-2 suite whose representatives A, B, C
// record on one tape.
type tapedSuite struct {
	suite *Suite
	reps  []*rep.Rep
	tape  *tape
	rec   *recorder
}

// newTapedSuite builds one in process (the tape sits where the suite
// calls the member) or over loopback TCP (the tape sits behind the
// server, so what it sees has crossed the wire). sel may be nil for the
// seeded random selector.
func newTapedSuite(t *testing.T, tcp bool, seed int64, sel func(quorum.Config) quorum.Selector, opts ...Option) *tapedSuite {
	t.Helper()
	ts := &tapedSuite{tape: &tape{}, rec: &recorder{}}
	dirs := make([]rep.Directory, 3)
	for i, name := range []string{"A", "B", "C"} {
		r := rep.New(name)
		ts.reps = append(ts.reps, r)
		taped := &tapedDir{inner: r, t: ts.tape}
		if !tcp {
			dirs[i] = transport.NewLocal(taped)
			continue
		}
		srv, err := transport.Serve(taped, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl, err := transport.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		dirs[i] = cl
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	var s quorum.Selector = quorum.NewRandomSelector(cfg, seed)
	if sel != nil {
		s = sel(cfg)
	}
	opts = append([]Option{WithSelector(s), WithMetrics(ts.rec)}, opts...)
	suite, err := NewSuite(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(suite.Close)
	ts.suite = suite
	return ts
}

// run performs one operation and returns the calls it made, release or
// commit round included, having checked that the representatives'
// counters say the same.
func (ts *tapedSuite) run(t *testing.T, what string, op func() error) []tapedCall {
	t.Helper()
	if err := ts.suite.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.tape.take()
	before := ts.served()
	if err := op(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := ts.suite.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	calls := ts.tape.take()
	if got := ts.served() - before; got != uint64(len(calls)) {
		t.Errorf("%s: the representatives' counters went up by %d, they served %d calls: %v", what, got, len(calls), kinds(calls))
	}
	return calls
}

// served is the sum of the representatives' counters of calls served.
func (ts *tapedSuite) served() uint64 {
	var n uint64
	for _, r := range ts.reps {
		c := r.Counters()
		n += c.Lookups + c.NeighborProbes + c.Inserts + c.Coalesces + c.Prepares + c.Commits + c.Aborts
	}
	return n
}

// ghostFree checks the section 4 statistics of the last delete, which
// met no ghost: one neighborhood read at each of two readers, the first
// candidate current on both sides, and as many copies as were sent.
func (ts *tapedSuite) ghostFree(t *testing.T, what string, copies int) {
	t.Helper()
	o := ts.rec.last(t)
	if o.NeighborRPCs != 2 || o.PredecessorWalkSteps != 1 || o.SuccessorWalkSteps != 1 || o.GhostDeletions != 0 || o.Insertions != copies {
		t.Errorf("%s: observed %+v; want 2 neighbor RPCs, 1 walk step each way, no ghost, %d insertions", what, o, copies)
	}
}

// idle checks that no representative is left holding anything: a
// transaction is known at one only while it holds a lock there
// (rep.Rep.join).
func (ts *tapedSuite) idle(t *testing.T, what string) {
	t.Helper()
	for _, r := range ts.reps {
		if n := r.Locks().ActiveTransactions(); n != 0 {
			t.Errorf("%s: %d transactions hold locks at %s", what, n, r.Name())
		}
	}
}

// TestPointOperationRounds is the table the message diet is held to: on
// a healthy 3-2-2 suite, whatever quorums the random selector draws, a
// lookup is 2 messages in 1 round, an insert or update of a key the
// suite knows no version of 6 in 3, one of a key it knows 4 in 2 (the
// write checks the version instead of a read), a local lookup 1 in 1,
// and a delete 6 in 3 (one more message for each bound a writer lacks
// and is sent a copy of, in one more round). A version the suite knows
// wrongly costs the 2 refused writes and their 2 aborts on top of the 6.
func TestPointOperationRounds(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		tcp      bool
		parallel bool
		seeds    int64
	}{
		{"local", false, false, 40},
		{"local-parallel", false, true, 40},
		{"tcp", true, true, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			deletesWithoutCopies := 0
			for seed := int64(1); seed <= tc.seeds; seed++ {
				ts := newTapedSuite(t, tc.tcp, seed, nil, WithParallelQuorum(tc.parallel))
				for _, k := range []string{"b", "d", "f", "h"} {
					if err := ts.suite.Insert(ctx, k, "v0"); err != nil {
						t.Fatal(err)
					}
				}
				what := func(op string) string { return fmt.Sprintf("seed %d %s", seed, op) }

				calls := ts.run(t, what("lookup"), func() error {
					_, found, err := ts.suite.Lookup(ctx, "d")
					if err == nil && !found {
						err = fmt.Errorf("d not found")
					}
					return err
				})
				if got := kinds(calls); !reflect.DeepEqual(got, []string{"lookup+once", "lookup+once"}) {
					t.Errorf("%s: calls %v, want 2 one-shot lookups", what("lookup"), got)
				}

				// The suite inserted d and knows its version; it knows none
				// of c and e.
				cold := []string{"lookup", "lookup", "insert+prepare", "insert+prepare", "commit", "commit"}
				warm := []string{"insert+prepare+expect", "insert+prepare+expect", "commit", "commit"}
				for _, w := range []struct {
					op   string
					run  func() error
					want []string
				}{
					{"insert", func() error { return ts.suite.Insert(ctx, "e", "v") }, cold},
					{"update", func() error { return ts.suite.Update(ctx, "d", "v1") }, warm},
					{"insertV", func() error { _, err := ts.suite.InsertV(ctx, "c", "v"); return err }, cold},
					{"updateV", func() error { _, err := ts.suite.UpdateV(ctx, "d", "v2"); return err }, warm},
				} {
					calls = ts.run(t, what(w.op), w.run)
					if got := kinds(calls); !reflect.DeepEqual(got, w.want) {
						t.Errorf("%s: calls %v, want %v", what(w.op), got, w.want)
						continue
					}
					if n := len(phases(calls)); n != len(w.want)/2 {
						t.Errorf("%s: %d rounds", what(w.op), n)
					}
					readers, writers, committed := membersOf(calls, "lookup"), membersOf(calls, w.want[len(w.want)-3]), membersOf(calls, "commit")
					if readers != nil && !reflect.DeepEqual(readers, writers) || !reflect.DeepEqual(writers, committed) {
						t.Errorf("%s: read %v, wrote %v, committed %v: want one pair of members", what(w.op), readers, writers, committed)
					}
				}

				// Every member moves d past the version the suite knows, as
				// a write through another suite and a repair would: the
				// write is refused, aborted, and then reads.
				for _, r := range ts.reps {
					id := lock.TxnID(1 << 40)
					if err := r.Insert(ctx, id, keyspace.New("d"), 10, "elsewhere"); err != nil {
						t.Fatal(err)
					}
					if err := r.Commit(ctx, id); err != nil {
						t.Fatal(err)
					}
				}
				var ver version.V
				before := ts.suite.Stats()
				calls = ts.run(t, what("stale update"), func() (err error) {
					ver, err = ts.suite.UpdateV(ctx, "d", "v3")
					return err
				})
				stale := append([]string{"insert+prepare+expect", "insert+prepare+expect", "abort", "abort"}, cold...)
				if got := kinds(calls); !reflect.DeepEqual(got, stale) || ver != 11 {
					t.Errorf("%s: calls %v wrote version %d, want %v and version 11", what("stale update"), got, ver, stale)
				}
				// The refusal is a retry, and no wait-die death.
				if st := ts.suite.Stats(); st.Retries-before.Retries != 1 || st.Dies != before.Dies {
					t.Errorf("%s: %d retries and %d deaths, want 1 and 0", what("stale update"), st.Retries-before.Retries, st.Dies-before.Dies)
				}

				// A delete reads (one neighborhood of the key at each
				// writer), coalesces and commits, all at its write quorum:
				// 6 messages in 3 rounds, plus one round of copies where a
				// writer lacks a bound. No member only reads, so none is
				// sent a prepare of its own. DeleteV costs the same, and
				// its version is the gap's a lookup of the key then reports.
				for _, d := range []struct {
					op, key string
					run     func(key string) (version.V, error)
				}{
					{"delete", "f", func(key string) (version.V, error) { return 0, ts.suite.Delete(ctx, key) }},
					{"deleteV", "b", func(key string) (version.V, error) { return ts.suite.DeleteV(ctx, key) }},
				} {
					calls = ts.run(t, what(d.op), func() (err error) {
						ver, err = d.run(d.key)
						return err
					})
					writers := membersOf(calls, "coalesce+prepare")
					copies := count(calls, "insert")
					wantPhases := []string{"neighbor+around", "coalesce+prepare", "commit"}
					if copies > 0 {
						wantPhases = []string{"neighbor+around", "insert", "coalesce+prepare", "commit"}
					}
					if got := phases(calls); !reflect.DeepEqual(got, wantPhases) || len(calls) != 6+copies || count(calls, "neighbor+around") != 2 {
						t.Errorf("%s: %d calls %v in rounds %v, want 6 + %d copies in %v", what(d.op), len(calls), kinds(calls), got, copies, wantPhases)
					}
					if got := membersOf(calls, "neighbor+around", "insert", "commit"); len(writers) != 2 || !reflect.DeepEqual(got, writers) {
						t.Errorf("%s: calls went to %v, want all of them at the two writers %v", what(d.op), got, writers)
					}
					ts.ghostFree(t, what(d.op), copies)
					if copies == 0 && d.op == "delete" {
						deletesWithoutCopies++
					}
					if d.op == "deleteV" {
						if _, found, gap, err := ts.suite.LookupV(ctx, d.key); err != nil || found || gap != ver {
							t.Errorf("%s: lookup after found=%v at version %d (%v), want a miss at %d", what(d.op), found, gap, err, ver)
						}
					}
				}
				ts.idle(t, what("all"))
			}
			if tc.seeds >= 40 && (deletesWithoutCopies == 0 || deletesWithoutCopies == int(tc.seeds)) {
				t.Errorf("%d of %d deletes copied no bound; want both kinds covered", deletesWithoutCopies, tc.seeds)
			}
		})
	}
}

// TestRangeOperationRounds is the table the ordered operations are held
// to. Every representative holds every one of N keys, so whatever quorum
// the selector draws, a round of batches decides a whole page: a scan of
// 10, forward or backward, and a successor are one round of 2 batch
// calls and one of 2 aborts that release the range; a count reads
// ceil((N+1)/rep.MaxBatch) rounds — N entries and the HIGH that ends
// them, a page a round — and releases in one more; a delete is 6
// messages in 3 rounds at its two writers.
func TestRangeOperationRounds(t *testing.T) {
	ctx := context.Background()
	const keys = 150
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for _, tc := range []struct {
		name     string
		tcp      bool
		parallel bool
		seeds    int64
	}{
		{"local", false, false, 40},
		{"local-parallel", false, true, 40},
		{"tcp", true, true, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= tc.seeds; seed++ {
				ts := newTapedSuite(t, tc.tcp, seed, nil, WithParallelQuorum(tc.parallel))
				for i, r := range ts.reps {
					id := lock.TxnID(i + 1)
					for k := 0; k < keys; k++ {
						if err := r.Insert(ctx, id, keyspace.New(key(k)), 1, "v"+key(k)); err != nil {
							t.Fatal(err)
						}
					}
					if err := r.Commit(ctx, id); err != nil {
						t.Fatal(err)
					}
				}
				what := func(op string) string { return fmt.Sprintf("seed %d %s", seed, op) }
				oneRound := []string{"neighbor", "neighbor", "abort", "abort"}

				var page []KV
				calls := ts.run(t, what("scan"), func() (err error) {
					page, err = ts.suite.Scan(ctx, key(10), 10)
					return err
				})
				if got := kinds(calls); !reflect.DeepEqual(got, oneRound) || len(page) != 10 || page[0].Key != key(11) || page[9] != (KV{key(20), "v" + key(20)}) {
					t.Errorf("%s: calls %v returned %v; want %v and k011..k020", what("scan"), got, page, oneRound)
				}
				calls = ts.run(t, what("scan-reverse"), func() (err error) {
					page, err = ts.suite.ScanReverse(ctx, key(100), 10)
					return err
				})
				if got := kinds(calls); !reflect.DeepEqual(got, oneRound) || len(page) != 10 || page[0].Key != key(99) || page[9].Key != key(90) {
					t.Errorf("%s: calls %v returned %v; want %v and k099..k090", what("scan-reverse"), got, page, oneRound)
				}

				var n int
				calls = ts.run(t, what("count"), func() (err error) {
					n, err = ts.suite.Count(ctx)
					return err
				})
				readRounds := (keys + 1 + rep.MaxBatch - 1) / rep.MaxBatch
				readers := membersOf(calls, "neighbor")
				if n != keys || len(calls) != 2*readRounds+2 || len(phases(calls)) != 2 || len(readers) != 2 ||
					count(calls, "neighbor") != 2*readRounds || !reflect.DeepEqual(membersOf(calls, "abort"), readers) {
					t.Errorf("%s: counted %d in calls %v; want %d in %d rounds of 2 batches at one pair of members, then their 2 aborts", what("count"), n, kinds(calls), keys, readRounds)
				}

				calls = ts.run(t, what("delete"), func() error { return ts.suite.Delete(ctx, key(50)) })
				writers := membersOf(calls, "coalesce+prepare")
				want := []string{"neighbor+around", "neighbor+around", "coalesce+prepare", "coalesce+prepare", "commit", "commit"}
				if got := kinds(calls); !reflect.DeepEqual(got, want) || len(writers) != 2 ||
					!reflect.DeepEqual(membersOf(calls, "neighbor+around", "commit"), writers) {
					t.Errorf("%s: calls %v; want %v, all at the two writers", what("delete"), got, want)
				}
				ts.ghostFree(t, what("delete"), 0)
				// No round starts before the one before it has been answered.
				last := map[string]int{}
				for _, c := range calls {
					last[c.kind] = max(last[c.kind], c.end)
				}
				for _, c := range calls {
					if c.kind == "coalesce+prepare" && c.start < last["neighbor+around"] || c.kind == "commit" && c.start < last["coalesce+prepare"] {
						t.Errorf("%s: %s@%s began at tick %d, before the round before it was answered", what("delete"), c.kind, c.member, c.start)
					}
				}
				ts.idle(t, what("all"))
			}
		})
	}
}

// slowDir delays each call to a representative by a random few hundred
// microseconds, so that the members of one round answer far apart.
type slowDir struct {
	rep.Directory
	mu  sync.Mutex
	rng *rand.Rand
}

func (d *slowDir) pause() {
	d.mu.Lock()
	n := d.rng.Intn(300)
	d.mu.Unlock()
	time.Sleep(time.Duration(n) * time.Microsecond)
}

func (d *slowDir) SuccessorBatch(ctx context.Context, id lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	d.pause()
	return d.Directory.SuccessorBatch(ctx, id, key, max)
}

func (d *slowDir) Insert(ctx context.Context, id lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	d.pause()
	return d.Directory.Insert(ctx, id, key, ver, value)
}

// TestScanNeverSeesHalfATransaction: a writer updates two keys of one
// range in a single transaction, each at a write quorum of its own, while
// scans read that range at quorums of theirs. A scan must see both new
// values or both old. It would see one of each if a member's range lock
// went before every member had answered: the scan's quorum can meet the
// two write quorums in different members, and the one that answers first
// may do so before the writer has reached it, the other after the writer
// has committed.
func TestScanNeverSeesHalfATransaction(t *testing.T) {
	ctx := context.Background()
	dirs := make([]rep.Directory, 3)
	for i, name := range []string{"A", "B", "C"} {
		dirs[i] = &slowDir{Directory: transport.NewLocal(rep.New(name)), rng: rand.New(rand.NewSource(int64(i)))}
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	newSuite := func(seed int64) *Suite {
		s, err := NewSuite(cfg, WithSelector(quorum.NewRandomSelector(cfg, seed)), WithParallelQuorum(true))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	writer := newSuite(1)
	for _, k := range []string{"a", "c", "e", "g", "i"} {
		if err := writer.Insert(ctx, k, "0"); err != nil {
			t.Fatal(err)
		}
	}
	const rewrites = 150
	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := int64(0); s < 3; s++ {
		scanner := newSuite(10 + s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				page, err := scanner.Scan(ctx, "", 10)
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				seen := map[string]string{}
				for _, kv := range page {
					seen[kv.Key] = kv.Value
				}
				if len(page) != 5 || seen["c"] != seen["g"] {
					t.Errorf("a scan saw half a transaction: %v", page)
					return
				}
			}
		}()
	}
	for i := 1; i <= rewrites; i++ {
		v := strconv.Itoa(i)
		err := writer.RunInTxn(ctx, func(tx *Tx) error {
			if err := tx.Update(ctx, "c", v); err != nil {
				return err
			}
			return tx.Update(ctx, "g", v)
		})
		if err != nil {
			t.Fatalf("rewrite %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
}

// fixedSelector answers every draw with the scripted members that are
// not excluded, whether or not they still make a quorum — which is how
// the paper's figures choose quorums, and what a point write's narrowed
// draw has to survive.
func fixedSelector(read, write []int) func(quorum.Config) quorum.Selector {
	return func(cfg quorum.Config) quorum.Selector {
		s := &scriptSelector{cfg: cfg}
		s.set(read, write)
		return s
	}
}

// TestPureReaderReleasedAfterLockPoint: when the write quorum leaves out
// a member the version read used, that member is released by a prepare
// of its own, and never before every write of the round has been
// acknowledged: until then the transaction is still acquiring locks,
// and two-phase locking forbids it to release any. The writer the read
// did not reach gets a plain write and is asked in the same round.
func TestPureReaderReleasedAfterLockPoint(t *testing.T) {
	ctx := context.Background()
	// Read at A and C, write to A and B: C only reads, B only writes.
	ts := newTapedSuite(t, false, 1, fixedSelector([]int{0, 2}, []int{0, 1}), WithParallelQuorum(true))
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%02d", i)
		calls := ts.run(t, key, func() error { return ts.suite.Insert(ctx, key, "v") })
		got := make([]string, len(calls))
		for j, c := range calls {
			got[j] = c.kind + "@" + c.member
		}
		sort.Strings(got[0:2])
		sort.Strings(got[2:4])
		sort.Strings(got[4:6])
		sort.Strings(got[6:8])
		want := []string{
			"lookup@A", "lookup@C",
			"insert+prepare@A", "insert@B",
			"prepare@B", "prepare@C",
			"commit@A", "commit@B",
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: calls %v, want %v", key, got, want)
		}
		lockPoint := 0
		for _, c := range calls[2:4] {
			lockPoint = max(lockPoint, c.end)
		}
		for _, c := range calls[4:6] {
			if c.start < lockPoint {
				t.Fatalf("%s: %s@%s began at tick %d, before the write round was acknowledged at %d", key, c.kind, c.member, c.start, lockPoint)
			}
		}
	}
	ts.idle(t, "inserts")
}

// restartingDir restarts one representative, losing its locks and
// transaction records as a crash does, right after it has served the
// first Lookup of a transaction — and lets a rival writer through while
// the locks are gone.
type restartingDir struct {
	*transport.Local
	restart func() // cleared when it fires; the rival's own lookups pass through
}

func (d *restartingDir) Lookup(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	res, err := d.Local.Lookup(ctx, id, key)
	if restart := d.restart; restart != nil && !rep.OneShot(ctx) {
		d.restart = nil
		restart()
	}
	return res, err
}

// TestReadOnlyParticipantCrashStillAborts: a member serves a writer's
// version read and then restarts before the commit, so the read lock
// the writer relies on is gone — and a rival uses the gap to commit the
// very version number the writer is about to use. The writer must
// notice, whether the restarted member is in its write quorum (the
// write that carries the prepare is refused) or only read for it (its
// prepare is refused); abort, and on the retry build on the rival's
// version instead of overwriting it.
func TestReadOnlyParticipantCrashStillAborts(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name        string
		read, write []int
		refusedCall string
	}{
		// A restarts. The writer reads A, B.
		{"in the write quorum", []int{0, 1}, []int{0, 1}, "insert+prepare"},
		{"pure reader", []int{0, 1}, []int{1, 2}, "prepare"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := &tape{}
			a, b, c := fault.NewMember("A", fault.Plan{}, 1), rep.New("B"), rep.New("C")
			dirs := make([]rep.Directory, 3)
			for i, d := range []rep.Directory{a, b, c} {
				dirs[i] = transport.NewLocal(&tapedDir{inner: d, t: tp})
			}
			restarting := &restartingDir{Local: dirs[0].(*transport.Local)}
			dirs[0] = restarting
			cfg := quorum.NewUniform(dirs, 2, 2)
			writer, err := NewSuite(cfg, WithSelector(fixedSelector(tc.read, tc.write)(cfg)))
			if err != nil {
				t.Fatal(err)
			}
			// The rival reads and writes through A and C only, so it never
			// meets the lock the writer still holds at B.
			rival, err := NewSuite(cfg, WithSelector(fixedSelector([]int{0, 2}, []int{0, 2})(cfg)))
			if err != nil {
				t.Fatal(err)
			}
			// The rival inserts k, so the writer knows no version of it
			// and reads one.
			if err := rival.Insert(ctx, "k", "v1"); err != nil {
				t.Fatal(err)
			}
			restarting.restart = func() {
				a.Crash()
				if err := a.Heal(); err != nil {
					t.Error(err)
				}
				if err := rival.Update(ctx, "k", "rival"); err != nil {
					t.Errorf("rival update: %v", err)
				}
			}
			tp.take()

			ver, err := writer.UpdateV(ctx, "k", "writer")
			if err != nil {
				t.Fatalf("update: %v", err)
			}
			if st := writer.Stats(); st.Retries != 1 {
				t.Errorf("retries = %d, want 1", st.Retries)
			}
			// v1 was version 1, the rival's update 2; the writer's must be 3.
			if ver != 3 {
				t.Errorf("the writer committed version %d, want 3: it must build on the rival's update, not overwrite it", ver)
			}
			if v, found, err := rival.Lookup(ctx, "k"); err != nil || !found || v != "writer" {
				t.Errorf("final value = %q, %v, %v", v, found, err)
			}

			// The first attempt: refused at the restarted member, and no
			// commit under its ID anywhere.
			calls := tp.take()
			first := calls[0].txn
			refused := false
			for _, c := range calls {
				if c.txn != first {
					continue
				}
				if c.kind == "commit" {
					t.Errorf("the attempt that lost its read lock sent a commit to %s", c.member)
				}
				if c.kind == tc.refusedCall && c.member == "A" {
					refused = true
				}
			}
			if !refused {
				t.Errorf("no %s reached the restarted member under the first attempt: %v", tc.refusedCall, kinds(calls))
			}
			for _, r := range []*rep.Rep{a.Rep(), b, c} {
				if n := r.Locks().ActiveTransactions(); n != 0 {
					t.Errorf("%d transactions still hold locks at %s", n, r.Name())
				}
			}
		})
	}
}

// TestDeleteCarriesPrepareOnlyAsAPointWrite: inside RunInTxn a delete is
// one operation of several, so its coalesce is not known to be the last
// write and the prepare travels in a round of its own.
func TestDeleteCarriesPrepareOnlyAsAPointWrite(t *testing.T) {
	ctx := context.Background()
	ts := newTapedSuite(t, false, 1, nil)
	for _, k := range []string{"b", "d", "f"} {
		if err := ts.suite.Insert(ctx, k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	calls := ts.run(t, "txn", func() error {
		return ts.suite.RunInTxn(ctx, func(tx *Tx) error {
			if _, _, err := tx.Lookup(ctx, "b"); err != nil {
				return err
			}
			return tx.Delete(ctx, "d")
		})
	})
	got := strings.Join(kinds(calls), " ")
	for _, marked := range []string{"+once", "+prepare"} {
		if strings.Contains(got, marked) {
			t.Errorf("a multi-operation transaction sent a %s call: %s", marked, got)
		}
	}
	if !strings.Contains(got, "coalesce coalesce prepare") || !strings.HasSuffix(got, "commit commit") {
		t.Errorf("calls = %s, want a prepare round after the coalesces and a commit round last", got)
	}
	ts.idle(t, "txn")
}
