package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repdir/internal/fault"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/version"
)

// scriptSelector returns exactly the members whose indices are configured,
// letting tests reproduce the paper's figure-by-figure quorum choices.
type scriptSelector struct {
	cfg quorum.Config

	mu       sync.Mutex
	readIdx  []int
	writeIdx []int
}

func (s *scriptSelector) set(read, write []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readIdx, s.writeIdx = read, write
}

func (s *scriptSelector) Select(kind quorum.Kind, exclude quorum.Set, dst []int) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.readIdx
	if kind == quorum.Write {
		idx = s.writeIdx
	}
	dst = dst[:0]
	for _, i := range idx {
		if !exclude.Has(i) {
			dst = append(dst, i)
		}
	}
	if len(dst) == 0 {
		return nil, quorum.ErrNoQuorum
	}
	return dst, nil
}

// recorder collects delete observations.
type recorder struct {
	mu  sync.Mutex
	obs []DeleteObservation
}

func (r *recorder) ObserveDelete(o DeleteObservation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = append(r.obs, o)
}

func (r *recorder) last(t *testing.T) DeleteObservation {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.obs) == 0 {
		t.Fatal("no delete observations recorded")
	}
	return r.obs[len(r.obs)-1]
}

// testSuite bundles a suite with direct access to its representatives.
type testSuite struct {
	suite   *Suite
	cfg     quorum.Config
	reps    []*rep.Rep
	locals  []*transport.Local
	hooks   []*hook
	counts  *counts
	members []*fault.Member
	script  *scriptSelector
	rec     *recorder
}

// counts is what the hooks of one suite's members count between them.
type counts struct {
	inFlight, peak  atomic.Int32 // data-path calls in flight now, and at most
	expected, moved atomic.Int64 // inserts built on a hint, and those refused as stale
}

// hook is a member as a test's clients reach it: a transport.Local (its
// latency and partitions) behind the faults a test injects at the
// client's side of the wire and the counts it watches. Prepare, Commit
// and Abort are never refused: a member's data path fails while
// transaction control still drains.
type hook struct {
	*transport.Local
	c       *counts
	shed    atomic.Bool // refuse with ErrOverloaded, as a server's admission control
	limited atomic.Bool // lost once budget more data-path calls have passed
	budget  atomic.Int64
	lookups atomic.Int64 // lookups sent, refused or not
}

// lose lets n more data-path calls pass, then fails every one with
// ErrUnavailable; heal ends it.
func (h *hook) lose(n int64) { h.budget.Store(n); h.limited.Store(true) }
func (h *hook) heal()        { h.limited.Store(false) }

func (h *hook) Enter(ctx context.Context, op transport.Op) (transport.Call, error) {
	switch op {
	case transport.OpPrepare, transport.OpCommit, transport.OpAbort:
	case transport.OpLookup:
		h.lookups.Add(1)
		fallthrough
	default:
		if h.shed.Load() {
			return transport.Call{}, fmt.Errorf("%w: shed by %s", transport.ErrOverloaded, h.Name())
		}
		if h.limited.Load() && h.budget.Add(-1) < 0 {
			return transport.Call{}, fmt.Errorf("%w: %s lost", transport.ErrUnavailable, h.Name())
		}
		if op == transport.OpInsert && rep.Expects(ctx) {
			h.c.expected.Add(1)
		}
	}
	n := h.c.inFlight.Add(1)
	for p := h.c.peak.Load(); n > p && !h.c.peak.CompareAndSwap(p, n); p = h.c.peak.Load() {
	}
	c, err := h.Local.Enter(ctx, op)
	if err != nil {
		h.c.inFlight.Add(-1)
	}
	return c, err
}

func (h *hook) Exit(c transport.Call, op transport.Op, err error) error {
	h.c.inFlight.Add(-1)
	if errors.Is(err, rep.ErrVersionMoved) {
		h.c.moved.Add(1)
	}
	return h.Local.Exit(c, op, err)
}

// newHooked returns a member over target whose hook counts into c.
func newHooked(target rep.Directory, c *counts) (*hook, rep.Directory) {
	h := &hook{Local: transport.NewLocal(target), c: c}
	return h, &transport.Middleware{Hook: h}
}

// newSuite builds a suite over fresh members named names, each behind
// its hook, whose quorums sel draws.
func newSuite(t *testing.T, names []string, r, w int, sel func(quorum.Config) quorum.Selector, opts ...Option) *testSuite {
	t.Helper()
	ts := &testSuite{counts: &counts{}, rec: &recorder{}}
	dirs := make([]rep.Directory, len(names))
	for i, n := range names {
		ts.reps = append(ts.reps, rep.New(n))
		h, dir := newHooked(ts.reps[i], ts.counts)
		ts.hooks, ts.locals, dirs[i] = append(ts.hooks, h), append(ts.locals, h.Local), dir
	}
	ts.cfg = quorum.NewUniform(dirs, r, w)
	s, err := NewSuite(ts.cfg, append([]Option{WithSelector(sel(ts.cfg)), WithMetrics(ts.rec)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ts.suite = s
	return ts
}

// newScriptedSuite builds a suite driven by a script selector.
func newScriptedSuite(t *testing.T, names []string, r, w int) *testSuite {
	var script *scriptSelector
	ts := newSuite(t, names, r, w, func(cfg quorum.Config) quorum.Selector {
		script = &scriptSelector{cfg: cfg}
		return script
	})
	ts.script = script
	return ts
}

// newRandomSuite builds a suite with the default random selector.
func newRandomSuite(t *testing.T, names []string, r, w int, seed int64, opts ...Option) *testSuite {
	return newSuite(t, names, r, w, func(cfg quorum.Config) quorum.Selector { return quorum.NewRandomSelector(cfg, seed) }, opts...)
}

// joinKeys returns a page's keys, space-separated.
func joinKeys(page []KV) string {
	keys := make([]string, len(page))
	for i, kv := range page {
		keys[i] = kv.Key
	}
	return strings.Join(keys, " ")
}

// prepopulate writes entries with version 1 directly into every replica,
// reproducing the paper's Figure 1 starting state (all gaps at version 0).
func (ts *testSuite) prepopulate(t *testing.T, keys ...string) {
	t.Helper()
	ctx := context.Background()
	for i, r := range ts.reps {
		id := lock.TxnID(i + 1)
		for _, k := range keys {
			if err := r.Insert(ctx, id, keyspace.New(k), 1, "val-"+k); err != nil {
				t.Fatalf("prepopulate %s at %s: %v", k, r.Name(), err)
			}
		}
		if err := r.Commit(ctx, id); err != nil {
			t.Fatalf("prepopulate commit at %s: %v", r.Name(), err)
		}
	}
}

// repHas reports whether replica i stores an entry for key, with its
// version.
func (ts *testSuite) repHas(i int, key string) (bool, version.V) {
	for _, e := range ts.reps[i].Dump() {
		if e.Key.Equal(keyspace.New(key)) {
			return true, e.Version
		}
	}
	return false, 0
}
