package core

import (
	"context"
	"sync"
	"testing"
	"testing/quick"

	"repdir/internal/fault"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/version"
)

// quickCheckSmall runs a testing/quick property with a bounded case
// count, for properties whose individual cases are relatively expensive.
func quickCheckSmall(property any, maxCount int) error {
	return quick.Check(property, &quick.Config{MaxCount: maxCount})
}

// scriptSelector returns exactly the members whose indices are configured,
// letting tests reproduce the paper's figure-by-figure quorum choices.
type scriptSelector struct {
	cfg quorum.Config

	mu       sync.Mutex
	readIdx  []int
	writeIdx []int
}

var _ quorum.Selector = (*scriptSelector)(nil)

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

var _ Metrics = (*recorder)(nil)

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
	reps    []*rep.Rep
	locals  []*transport.Local
	members []*fault.Member
	script  *scriptSelector
	rec     *recorder
}

// newScriptedSuite builds an n-replica suite driven by a script selector.
func newScriptedSuite(t *testing.T, names []string, r, w int) *testSuite {
	t.Helper()
	reps := make([]*rep.Rep, len(names))
	locals := make([]*transport.Local, len(names))
	dirs := make([]rep.Directory, len(names))
	for i, n := range names {
		reps[i] = rep.New(n)
		locals[i] = transport.NewLocal(reps[i])
		dirs[i] = locals[i]
	}
	cfg := quorum.NewUniform(dirs, r, w)
	script := &scriptSelector{cfg: cfg}
	rec := &recorder{}
	s, err := NewSuite(cfg, WithSelector(script), WithMetrics(rec))
	if err != nil {
		t.Fatal(err)
	}
	return &testSuite{suite: s, reps: reps, locals: locals, script: script, rec: rec}
}

// newRandomSuite builds an n-replica suite with the default random
// selector.
func newRandomSuite(t *testing.T, names []string, r, w int, seed int64, opts ...Option) *testSuite {
	t.Helper()
	reps := make([]*rep.Rep, len(names))
	locals := make([]*transport.Local, len(names))
	dirs := make([]rep.Directory, len(names))
	for i, n := range names {
		reps[i] = rep.New(n)
		locals[i] = transport.NewLocal(reps[i])
		dirs[i] = locals[i]
	}
	cfg := quorum.NewUniform(dirs, r, w)
	rec := &recorder{}
	opts = append([]Option{WithSelector(quorum.NewRandomSelector(cfg, seed)), WithMetrics(rec)}, opts...)
	s, err := NewSuite(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return &testSuite{suite: s, reps: reps, locals: locals, rec: rec}
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
