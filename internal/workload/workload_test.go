package workload

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repdir/internal/core"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// updateHeavy is a YCSB-A-like mix, for tests that need many updates.
var updateHeavy = Mix{Name: "update-heavy", Lookup: 50, Update: 50}

// newSuite builds a 3-2-2 sticky suite.
func newSuite(t *testing.T, names ...string) *core.Suite {
	t.Helper()
	if len(names) == 0 {
		names = []string{"rep0", "rep1", "rep2"}
	}
	dirs := make([]rep.Directory, len(names))
	for i, n := range names {
		dirs[i] = transport.NewLocal(rep.New(n))
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	s, err := core.NewSuite(cfg,
		core.WithSelector(quorum.NewStickySelector(cfg)),
		core.WithParallelQuorum(true))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	return s
}

// TestPreloadAndRun drives a short open-loop mixed run end to end
// against a real suite and checks the accounting identities: every
// offered arrival is either completed or shed, the latency captures
// cover every completed operation, and response >= service in
// aggregate.
func TestPreloadAndRun(t *testing.T) {
	ctx := context.Background()
	s := newSuite(t)
	const keys = 200
	if err := Preload(ctx, s, keys, 32, 4, SuiteRunner(s)); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	if _, found, err := s.Lookup(ctx, Key(0)); err != nil || !found {
		t.Fatalf("preloaded key missing: %v %v", found, err)
	}
	if _, found, err := s.Lookup(ctx, Key(keys-1)); err != nil || !found {
		t.Fatalf("last preloaded key missing: %v %v", found, err)
	}

	res, err := Run(ctx, s, Config{
		Mix:      Mix{Name: "mixed", Lookup: 60, Update: 20, Insert: 20},
		Keys:     keys,
		Rate:     2000,
		Duration: 300 * time.Millisecond,
		Workers:  8,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Offered == 0 {
		t.Fatal("no arrivals offered")
	}
	if res.Offered != res.Completed+res.Shed {
		t.Errorf("accounting: offered %d != completed %d + shed %d",
			res.Offered, res.Completed, res.Shed)
	}
	if res.Errors != 0 {
		t.Errorf("%d operation errors", res.Errors)
	}
	if res.Response.Count != res.Completed || res.Service.Count != res.Completed {
		t.Errorf("capture counts %d/%d != completed %d",
			res.Response.Count, res.Service.Count, res.Completed)
	}
	if res.Response.Sum < res.Service.Sum {
		t.Errorf("aggregate response %v < service %v — intended-start accounting lost time",
			res.Response.Sum, res.Service.Sum)
	}
}

// TestRunDeterministicStream pins that the operation stream is a pure
// function of the seed: two generators with the same seed produce the
// same sequence, and seed zero is a valid seed distinct from seed one.
func TestRunDeterministicStream(t *testing.T) {
	cfg := Config{Keys: 100, Mix: updateHeavy, ZipfS: 1.2}.withDefaults()
	a, b := newOpGen(cfg), newOpGen(cfg)
	for i := 0; i < 500; i++ {
		oa, ob := a.next(), b.next()
		if oa.kind != ob.kind || oa.key != ob.key {
			t.Fatalf("op %d diverged: %v/%s vs %v/%s", i, oa.kind, oa.key, ob.kind, ob.key)
		}
	}
	zero, one := cfg, cfg
	zero.Seed, one.Seed = 0, 1
	gz, go1 := newOpGen(zero), newOpGen(one)
	same := true
	for i := 0; i < 64; i++ {
		oz, oo := gz.next(), go1.next()
		if oz.kind != oo.kind || oz.key != oo.key {
			same = false
			break
		}
	}
	if same {
		t.Error("seed 0 and seed 1 generated identical streams — zero seed likely coerced")
	}
}

// slowDir wraps a Directory, delaying every lookup.
type slowDir struct {
	Directory
	delay time.Duration
	calls atomic.Uint64
}

func (d *slowDir) Lookup(ctx context.Context, key string) (string, bool, error) {
	d.calls.Add(1)
	time.Sleep(d.delay)
	return d.Directory.Lookup(ctx, key)
}

// TestBackpressureSheds overloads a deliberately slow target: with one
// worker, a tiny queue, and arrivals far beyond capacity, the driver
// must shed (not block the clock), and the response tail must dwarf the
// service tail (the coordinated omission a closed-loop driver would have
// hidden).
func TestBackpressureSheds(t *testing.T) {
	ctx := context.Background()
	s := newSuite(t, "sl0", "sl1", "sl2")
	const keys = 50
	if err := Preload(ctx, s, keys, 16, 2, SuiteRunner(s)); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	slow := &slowDir{Directory: s, delay: 5 * time.Millisecond}
	res, err := Run(ctx, slow, Config{
		Mix:        Mix{Name: "reads", Lookup: 1},
		Keys:       keys,
		Rate:       2000, // 10× the single worker's ~200/s capacity
		Duration:   250 * time.Millisecond,
		Workers:    1,
		QueueDepth: 4,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Shed == 0 {
		t.Fatalf("overloaded run shed nothing (offered %d, completed %d)", res.Offered, res.Completed)
	}
	if res.Response.Quantile(0.99) <= res.Service.Quantile(0.99) {
		t.Errorf("response p99 %v <= service p99 %v — queueing delay not charged",
			res.Response.Quantile(0.99), res.Service.Quantile(0.99))
	}
}

// TestRecorder pins the response/service split.
func TestRecorder(t *testing.T) {
	var r Recorder
	base := time.Unix(0, 0)
	// Intended at t=0, started at t=40ms (queued), done at t=50ms.
	r.Record(base, base.Add(40*time.Millisecond), base.Add(50*time.Millisecond))
	resp, svc := r.Response(), r.Service()
	if resp.Max != 50*time.Millisecond {
		t.Errorf("response max = %v, want 50ms", resp.Max)
	}
	if svc.Max != 10*time.Millisecond {
		t.Errorf("service max = %v, want 10ms", svc.Max)
	}
}

// TestHotKeyMix pins the write-hot overlay: with HotFraction set, about
// that share of updates lands on the tiny hot keyset while lookups keep
// the base distribution (over a universe large enough that hot hits by
// chance are negligible).
func TestHotKeyMix(t *testing.T) {
	cfg := Config{
		Keys:        10_000,
		Mix:         updateHeavy,
		HotFraction: 0.5,
		HotKeys:     4,
		Seed:        11,
	}.withDefaults()
	g := newOpGen(cfg)
	hotSet := make(map[string]bool, cfg.HotKeys)
	for i := 0; i < cfg.HotKeys; i++ {
		hotSet[Key(i)] = true
	}
	var updates, hotUpdates, lookups, hotLookups int
	for i := 0; i < 4000; i++ {
		o := g.next()
		switch o.kind {
		case opUpdate:
			updates++
			if hotSet[o.key] {
				hotUpdates++
			}
		case opLookup:
			lookups++
			if hotSet[o.key] {
				hotLookups++
			}
		}
	}
	frac := float64(hotUpdates) / float64(updates)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("hot update fraction = %.2f, want ~0.5", frac)
	}
	// 4 hot keys out of 10k: uniform lookups land there ~0.04% of the
	// time. Anything above 2% means the overlay leaked into reads.
	if float64(hotLookups)/float64(lookups) > 0.02 {
		t.Errorf("lookups biased to hot keys (%d of %d) — overlay must be write-only", hotLookups, lookups)
	}

	// The overlay stays deterministic under a fixed seed.
	a, b := newOpGen(cfg), newOpGen(cfg)
	for i := 0; i < 500; i++ {
		oa, ob := a.next(), b.next()
		if oa.kind != ob.kind || oa.key != ob.key {
			t.Fatalf("op %d diverged with hot overlay", i)
		}
	}
}

func TestErrKindClassification(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{transport.ErrOverloaded, "overloaded"},
		{transport.ErrExpired, "expired"},
		{transport.ErrUnavailable, "unavailable"},
		{context.DeadlineExceeded, "deadline"},
		{core.ErrKeyExists, "other"},
	}
	for _, c := range cases {
		if got := errKindLabels[errKind(c.err)]; got != c.want {
			t.Errorf("errKind(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// failDir fails every lookup with a fixed error.
type failDir struct {
	Directory
	err error
}

func (d *failDir) Lookup(ctx context.Context, key string) (string, bool, error) {
	return "", false, d.err
}

// TestRunErrorKindsAccounting drives a lookup-only run against a target
// that sheds everything: every error must land in the "overloaded"
// bucket and the buckets must sum to Errors.
func TestRunErrorKindsAccounting(t *testing.T) {
	ctx := context.Background()
	s := newSuite(t, "ek0", "ek1", "ek2")
	if err := Preload(ctx, s, 20, 16, 2, SuiteRunner(s)); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	res, err := Run(ctx, &failDir{Directory: s, err: transport.ErrOverloaded}, Config{
		Mix:      Mix{Name: "reads", Lookup: 1},
		Keys:     20,
		Rate:     1000,
		Duration: 100 * time.Millisecond,
		Workers:  4,
		Seed:     5,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Errors == 0 {
		t.Fatal("no errors recorded against an always-shedding target")
	}
	if got := res.ErrorKinds["overloaded"]; got != res.Errors {
		t.Errorf("ErrorKinds[overloaded] = %d, want all %d errors", got, res.Errors)
	}
	var sum uint64
	for _, n := range res.ErrorKinds {
		sum += n
	}
	if sum != res.Errors {
		t.Errorf("ErrorKinds sum %d != Errors %d", sum, res.Errors)
	}
}

// stallDir blocks lookups until the per-op context expires — the
// OpTimeout must bound the operation and classify it as a deadline miss.
type stallDir struct {
	Directory
}

func (d *stallDir) Lookup(ctx context.Context, key string) (string, bool, error) {
	<-ctx.Done()
	return "", false, ctx.Err()
}

func TestRunOpTimeout(t *testing.T) {
	ctx := context.Background()
	s := newSuite(t, "ot0", "ot1", "ot2")
	if err := Preload(ctx, s, 20, 16, 2, SuiteRunner(s)); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	start := time.Now()
	res, err := Run(ctx, &stallDir{Directory: s}, Config{
		Mix:       Mix{Name: "reads", Lookup: 1},
		Keys:      20,
		Rate:      200,
		Duration:  100 * time.Millisecond,
		Workers:   8,
		OpTimeout: 20 * time.Millisecond,
		Seed:      5,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Without OpTimeout this run would hang forever on the first lookup.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run took %v — OpTimeout did not bound stalled operations", elapsed)
	}
	if res.Errors == 0 || res.ErrorKinds["deadline"] != res.Errors {
		t.Errorf("deadline misses = %d of %d errors, want all", res.ErrorKinds["deadline"], res.Errors)
	}
}
