// Package workload is the repo's measuring stick: a YCSB-style
// open-loop workload driver over the directory API (core.Suite or
// shard.Router), with coordinated-omission-safe latency capture and
// machine-checkable SLO verdicts.
//
// # Open loop, and why
//
// A closed-loop driver issues the next operation only after the previous
// one returns, so a slow operation silently delays the arrival of every
// operation behind it — the load generator conspires with the system
// under test to hide its worst moments (coordinated omission). This
// driver is open-loop: arrivals follow a fixed schedule (one every
// 1/Rate seconds), queue in a bounded buffer when the executors fall
// behind, and every latency is measured from the operation's *intended*
// start time, so queueing delay caused by the system's own slowness
// counts against it. When even the queue overflows, arrivals are shed
// and counted — backpressure is reported, never hidden.
//
// # Sessions
//
// The read-heavy mix can route lookups through client sessions
// (session.go): read-your-writes version floors plus lease-based local
// reads at a sticky quorum member, turning an R-message quorum read into
// one message on the fast path. Run reports local-read hit/fallback
// counts so the read-path win is visible next to its latency cost.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/core"
	"repdir/internal/obs"
	"repdir/internal/transport"
	"repdir/internal/version"
)

// Directory is the slice of the directory API the driver exercises.
// *core.Suite and *shard.Router both implement it.
type Directory interface {
	Lookup(ctx context.Context, key string) (string, bool, error)
	Insert(ctx context.Context, key, value string) error
	Update(ctx context.Context, key, value string) error
	Scan(ctx context.Context, after string, limit int) ([]core.KV, error)
}

// VersionedDirectory adds the session primitives: version-returning
// writes/reads and single-member local reads. *core.Suite and
// *shard.Router both implement it (local reads additionally need
// core.WithLocalReads on the suite(s)).
type VersionedDirectory interface {
	Directory
	LookupV(ctx context.Context, key string) (string, bool, version.V, error)
	UpdateV(ctx context.Context, key, value string) (version.V, error)
	InsertV(ctx context.Context, key, value string) (version.V, error)
	LocalLookup(ctx context.Context, key string) (string, bool, version.V, error)
}

// Mix is an operation mix: relative weights, not percentages (they are
// normalized). Scan weight drives scanLimit-entry range scans.
type Mix struct {
	Name   string
	Lookup int
	Update int
	Insert int
	Scan   int
}

// scanLimit is the entry budget of every scan a mix issues.
const scanLimit = 50

// The standard mixes, YCSB-flavored: C-like read-heavy, A-like
// update-heavy, E-like scan-heavy.
var (
	ReadHeavy   = Mix{Name: "read-heavy", Lookup: 95, Update: 5}
	UpdateHeavy = Mix{Name: "update-heavy", Lookup: 50, Update: 50}
	ScanHeavy   = Mix{Name: "scan-heavy", Lookup: 20, Update: 5, Scan: 75}
)

func (m Mix) total() int { return m.Lookup + m.Update + m.Insert + m.Scan }

// SLO is a latency objective on response time (intended-start to
// completion). Zero fields are unchecked.
type SLO struct {
	P50  time.Duration
	P99  time.Duration
	P999 time.Duration
	// MaxShedFraction bounds Shed/Offered (default: any shedding fails
	// the verdict when an SLO is set, because shed arrivals are load the
	// system refused, not latency it served).
	MaxShedFraction float64
}

// Config parameterizes one open-loop run.
type Config struct {
	// Mix is the operation mix (default ReadHeavy).
	Mix Mix
	// Keys is the key-universe size; keys are dense ["w00000000",
	// "w00000001", ...) and must be preloaded (Preload). Zipfian mixes
	// draw ranks over this universe.
	Keys int
	// Rate is the open-loop arrival rate in operations per second
	// (default 1000).
	Rate float64
	// Duration bounds the arrival schedule (default 2s); queued
	// operations still complete (and are measured) after it elapses.
	Duration time.Duration
	// Workers is the executor pool size (default 32). The pool bounds
	// concurrency, the queue bounds memory; together they are the
	// client's admission control.
	Workers int
	// QueueDepth bounds the arrival queue (default 4*Workers). Arrivals
	// finding it full are shed and counted, not blocked: blocking the
	// arrival clock would re-introduce coordinated omission.
	QueueDepth int
	// ZipfS > 1 draws keys from a Zipf(s) rank distribution over the
	// universe (hot head, long tail); otherwise uniform.
	ZipfS float64
	// HotFraction, when > 0, redirects that fraction of update
	// operations onto a tiny write-hot keyset of HotKeys keys (the first
	// HotKeys keys of the universe), layered on top of the base
	// distribution. Concentrated writers contend for the same write
	// locks, so the mix exercises wait-die lock pressure, not just
	// queueing.
	HotFraction float64
	// HotKeys sizes the write-hot keyset (default 16 when HotFraction
	// is set).
	HotKeys int
	// OpTimeout, when > 0, runs every operation under its own context
	// deadline. Over the TCP transport the remaining budget propagates
	// in the request header, so servers can fast-reject work this
	// driver will no longer wait for.
	OpTimeout time.Duration
	// Seed fixes the operation/key sequence. Zero is a valid,
	// replayable seed (it is NOT coerced — see the zero-seed bugfix in
	// internal/sim).
	Seed int64
	// SLO, when any field is set, produces a pass/fail verdict.
	SLO SLO
	// Sessions, when > 0, routes lookups through that many client
	// sessions with read-your-writes floors and lease-based local reads
	// (requires a VersionedDirectory target with local members).
	Sessions int
	// LeaseTTL bounds how long a session trusts its local member
	// between quorum refreshes (default 500ms).
	LeaseTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.Mix.total() == 0 {
		c.Mix = ReadHeavy
	}
	if c.Keys <= 0 {
		c.Keys = 1000
	}
	if c.Rate <= 0 {
		c.Rate = 1000
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 500 * time.Millisecond
	}
	if c.HotFraction > 0 && c.HotKeys <= 0 {
		c.HotKeys = 16
	}
	if c.HotKeys > c.Keys {
		c.HotKeys = c.Keys
	}
	return c
}

// Key returns the i'th key of the dense universe.
func Key(i int) string { return fmt.Sprintf("w%08d", i) }

// Result is one run's accounting and latency capture.
type Result struct {
	Config Config
	// Offered counts scheduled arrivals; Shed the arrivals dropped at a
	// full queue; Completed the operations that finished (successfully
	// or not); Errors the operations that returned an error.
	Offered, Shed, Completed, Errors uint64
	// Elapsed spans first intended arrival to last completion.
	Elapsed time.Duration
	// Throughput is completed operations per second of Elapsed.
	Throughput float64
	// Response is latency from intended start (coordinated-omission
	// safe); Service from actual execution start — the number a
	// closed-loop driver would have reported. The gap between their
	// tails is the omission delta.
	Response obs.HistogramSnapshot
	Service  obs.HistogramSnapshot
	// PerOp breaks response time down by operation label.
	PerOp map[string]obs.HistogramSnapshot
	// LocalReads / LocalFallbacks count session lookups served by the
	// one-message local path vs falling back to a quorum read (floor
	// violation, lease expiry, or local-read error).
	LocalReads, LocalFallbacks uint64
	// ErrorKinds splits Errors by cause, so an overload run can account
	// for every refused operation: "overloaded" (server shed),
	// "expired" (deadline refused at the server), "unavailable",
	// "deadline" (client context elapsed), "other".
	ErrorKinds map[string]uint64
	// Verdict is the SLO evaluation (Checked false when no SLO set).
	Verdict Verdict
}

// Verdict is the SLO evaluation of a run.
type Verdict struct {
	Checked        bool
	P50, P99, P999 time.Duration
	ShedFraction   float64
	Pass           bool
	// Failures lists which objectives missed, for human logs.
	Failures []string
}

// evaluate builds the verdict from the response capture.
func (c Config) evaluate(res *Result) {
	v := &res.Verdict
	v.P50 = res.Response.Quantile(0.50)
	v.P99 = res.Response.Quantile(0.99)
	v.P999 = res.Response.Quantile(0.999)
	if res.Offered > 0 {
		v.ShedFraction = float64(res.Shed) / float64(res.Offered)
	}
	slo := c.SLO
	if slo.P50 == 0 && slo.P99 == 0 && slo.P999 == 0 {
		return
	}
	v.Checked = true
	v.Pass = true
	check := func(name string, got, want time.Duration) {
		if want > 0 && got > want {
			v.Pass = false
			v.Failures = append(v.Failures, fmt.Sprintf("%s %v > %v", name, got, want))
		}
	}
	check("p50", v.P50, slo.P50)
	check("p99", v.P99, slo.P99)
	check("p999", v.P999, slo.P999)
	if v.ShedFraction > slo.MaxShedFraction {
		v.Pass = false
		v.Failures = append(v.Failures,
			fmt.Sprintf("shed %.2f%% > %.2f%%", 100*v.ShedFraction, 100*slo.MaxShedFraction))
	}
}

// op is one scheduled operation: what to do, on which key, and when it
// was meant to start.
type op struct {
	kind     opKind
	key      string
	value    string
	intended time.Time
	session  int
}

type opKind uint8

const (
	opLookup opKind = iota
	opUpdate
	opInsert
	opScan
)

var opLabels = [...]string{"lookup", "update", "insert", "scan"}

// Error-kind buckets for Result.ErrorKinds. Overload accounting needs
// every refused operation attributed: a shed and an expiry are two
// different stories about the same slow server.
const (
	errOverloaded = iota
	errExpired
	errUnavailable
	errDeadline
	errOther
	numErrKinds
)

var errKindLabels = [numErrKinds]string{
	"overloaded", "expired", "unavailable", "deadline", "other",
}

func errKind(err error) int {
	switch {
	case errors.Is(err, transport.ErrOverloaded):
		return errOverloaded
	case errors.Is(err, transport.ErrExpired):
		return errExpired
	case errors.Is(err, transport.ErrUnavailable):
		return errUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return errDeadline
	default:
		return errOther
	}
}

// Preload installs the dense key universe through dir, batching inserts
// into transactions of batch keys (amortizing two-phase commit) and
// loading parallel disjoint stripes. Suite and Router targets both work;
// pass the concrete type's RunInTxn via the txnRunner.
func Preload(ctx context.Context, dir Directory, keys, batch, parallel int, runner TxnRunner) error {
	if keys <= 0 {
		return errors.New("workload: no keys to preload")
	}
	if batch <= 0 {
		batch = 128
	}
	if parallel <= 0 {
		parallel = 8
	}
	var wg sync.WaitGroup
	errCh := make(chan error, parallel)
	per := (keys + parallel - 1) / parallel
	for w := 0; w < parallel; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > keys {
			hi = keys
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for start := lo; start < hi; start += batch {
				end := start + batch
				if end > hi {
					end = hi
				}
				var err error
				if runner != nil {
					err = runner(ctx, func(ins Inserter) error {
						for i := start; i < end; i++ {
							if err := ins.Insert(ctx, Key(i), "v0"); err != nil {
								return err
							}
						}
						return nil
					})
				} else {
					for i := start; i < end; i++ {
						if err = dir.Insert(ctx, Key(i), "v0"); err != nil {
							break
						}
					}
				}
				if err != nil {
					errCh <- fmt.Errorf("workload: preload [%d,%d): %w", start, end, err)
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

// Inserter is the slice of the transactional API Preload batches
// through.
type Inserter interface {
	Insert(ctx context.Context, key, value string) error
}

// TxnRunner adapts a target's RunInTxn to Preload. For a *core.Suite s:
//
//	func(ctx context.Context, fn func(workload.Inserter) error) error {
//		return s.RunInTxn(ctx, func(tx *core.Tx) error { return fn(txInserter{ctx, tx}) })
//	}
//
// SuiteRunner and RouterRunner build these for the two concrete targets.
type TxnRunner func(ctx context.Context, fn func(Inserter) error) error

// Run drives one open-loop run against dir. The universe must already
// be preloaded. Sessions require dir to implement VersionedDirectory.
func Run(ctx context.Context, dir Directory, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Config: cfg}
	if cfg.Mix.total() <= 0 {
		return res, errors.New("workload: empty mix")
	}

	var sessions []*Session
	if cfg.Sessions > 0 {
		vdir, ok := dir.(VersionedDirectory)
		if !ok {
			return res, errors.New("workload: sessions need a versioned directory target")
		}
		sessions = make([]*Session, cfg.Sessions)
		for i := range sessions {
			sessions[i] = NewSession(vdir, cfg.LeaseTTL)
		}
	}

	rec := NewRecorder()
	queue := make(chan op, cfg.QueueDepth)
	var offered, shed, completed, errs atomic.Uint64
	var errKinds [numErrKinds]atomic.Uint64

	// Executors: drain the queue, run the operation, record latency
	// from the intended start.
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range queue {
				execStart := time.Now()
				opCtx, cancel := ctx, context.CancelFunc(nil)
				if cfg.OpTimeout > 0 {
					opCtx, cancel = context.WithTimeout(ctx, cfg.OpTimeout)
				}
				err := execute(opCtx, dir, sessions, cfg, o)
				if cancel != nil {
					cancel()
				}
				rec.Record(opLabels[o.kind], o.intended, execStart, time.Now())
				completed.Add(1)
				if err != nil {
					errs.Add(1)
					errKinds[errKind(err)].Add(1)
				}
			}
		}()
	}

	// Arrival clock: operations are generated in schedule order from a
	// single deterministic stream and offered at their intended times.
	gen := newOpGen(cfg)
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for n := 0; ; n++ {
		intended := start.Add(time.Duration(n) * interval)
		if intended.After(deadline) {
			break
		}
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		o := gen.next()
		o.intended = intended
		offered.Add(1)
		select {
		case queue <- o:
		default:
			// Queue full: shed the arrival. The clock keeps ticking —
			// that is the whole point of the open loop.
			shed.Add(1)
		}
	}
	close(queue)
	wg.Wait()
	res.Elapsed = time.Since(start)

	res.Offered = offered.Load()
	res.Shed = shed.Load()
	res.Completed = completed.Load()
	res.Errors = errs.Load()
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Completed) / res.Elapsed.Seconds()
	}
	res.Response = rec.Response()
	res.Service = rec.Service()
	res.PerOp = rec.PerOp()
	for _, s := range sessions {
		lr, lf := s.Stats()
		res.LocalReads += lr
		res.LocalFallbacks += lf
	}
	for i := range errKinds {
		if n := errKinds[i].Load(); n > 0 {
			if res.ErrorKinds == nil {
				res.ErrorKinds = make(map[string]uint64, numErrKinds)
			}
			res.ErrorKinds[errKindLabels[i]] = n
		}
	}
	cfg.evaluate(&res)
	return res, nil
}

// execute runs one operation. Semantic errors that the workload itself
// provokes (inserting an existing key) are not failures.
func execute(ctx context.Context, dir Directory, sessions []*Session, cfg Config, o op) error {
	switch o.kind {
	case opLookup:
		if len(sessions) > 0 {
			s := sessions[o.session%len(sessions)]
			_, _, err := s.Lookup(ctx, o.key)
			return err
		}
		_, _, err := dir.Lookup(ctx, o.key)
		return err
	case opUpdate:
		if len(sessions) > 0 {
			s := sessions[o.session%len(sessions)]
			return s.Update(ctx, o.key, o.value)
		}
		return dir.Update(ctx, o.key, o.value)
	case opInsert:
		err := dir.Insert(ctx, o.key, o.value)
		if errors.Is(err, core.ErrKeyExists) {
			return nil
		}
		return err
	case opScan:
		_, err := dir.Scan(ctx, o.key, scanLimit)
		return err
	}
	return fmt.Errorf("workload: unknown op %d", o.kind)
}

// opGen deterministically generates the operation stream: one rng, one
// zipf source, round-robin session assignment.
type opGen struct {
	cfg    Config
	rng    *rand.Rand
	zipf   *rand.Zipf
	seq    uint64
	insert int // next fresh insert suffix
}

func newOpGen(cfg Config) *opGen {
	g := &opGen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), insert: cfg.Keys}
	if cfg.ZipfS > 1 {
		g.zipf = rand.NewZipf(g.rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
	}
	return g
}

// pickKey draws a key index from the configured distribution.
func (g *opGen) pickKey() string {
	if g.zipf != nil {
		return Key(int(g.zipf.Uint64()))
	}
	return Key(g.rng.Intn(g.cfg.Keys))
}

// pickWriteKey layers the write-hot keyset over the base distribution:
// with probability HotFraction the update lands on one of HotKeys keys,
// concentrating writers onto the same locks.
func (g *opGen) pickWriteKey() string {
	if g.cfg.HotFraction > 0 && g.rng.Float64() < g.cfg.HotFraction {
		return Key(g.rng.Intn(g.cfg.HotKeys))
	}
	return g.pickKey()
}

func (g *opGen) next() op {
	m := g.cfg.Mix
	r := g.rng.Intn(m.total())
	g.seq++
	o := op{session: int(g.seq)}
	switch {
	case r < m.Lookup:
		o.kind, o.key = opLookup, g.pickKey()
	case r < m.Lookup+m.Update:
		o.kind, o.key = opUpdate, g.pickWriteKey()
		o.value = fmt.Sprintf("u%d", g.seq)
	case r < m.Lookup+m.Update+m.Insert:
		o.kind = opInsert
		o.key = Key(g.insert)
		g.insert++
		o.value = "v0"
	default:
		o.kind, o.key = opScan, g.pickKey()
	}
	return o
}
