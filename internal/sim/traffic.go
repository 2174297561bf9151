package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repdir/internal/core"
	"repdir/internal/obs"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/workload"
)

// TrafficConfig parameterizes the live-traffic experiment: a suite whose
// members are timed call by call, driven by a mixed workload for a
// wall-clock duration, so an operator can scrape /metrics against
// something that behaves like a real deployment.
type TrafficConfig struct {
	// Entries is the directory size seeded before the mixed phase.
	Entries int
	// Duration bounds the mixed workload phase (default 2s).
	Duration time.Duration
	// Seed fixes the workload. Zero is a valid, replayable seed — it is
	// deliberately not coerced, so `-seed 0` reproduces the same run
	// every time rather than silently becoming seed 1.
	Seed int64
	// Registry, when non-nil, receives every metric family the run
	// exports (suite counters, rep counters, per-member call latency
	// histograms) before traffic starts — pass the registry an
	// obs.Server is already scraping to watch the run live.
	Registry *obs.Registry
}

// trafficRate is the intended arrival rate in operations per second.
// Operations are issued by a single closed-loop client, but latency is
// charged from each operation's *intended* start on this schedule: when
// the suite runs slower than the schedule, the backlog counts against
// response time instead of silently stretching the arrival gaps
// (coordinated omission).
const trafficRate = 500

func (c TrafficConfig) withDefaults() TrafficConfig {
	if c.Entries <= 0 {
		c.Entries = 100
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	return c
}

// TrafficResult reports the run's accounting, by operation type where
// the tables elsewhere in this package summarize it away.
type TrafficResult struct {
	Config TrafficConfig
	// Ops counts the mixed phase's operations by type; Messages is the
	// mean member calls each sent, its release or commit round included
	// (the paper's section 4 cost unit), counted by the members that
	// serve them.
	Ops      map[string]uint64
	Messages map[string]float64
	// Suite is the suite's own accounting, the seeding inserts included.
	Suite core.SuiteStats
	// ProbesPerDelete is the live counterpart of the paper's section 4
	// neighbor-probe cost column.
	ProbesPerDelete float64
	// Response is latency measured from each operation's intended
	// arrival time on the trafficRate schedule; Service is measured from when
	// the operation actually started executing. Service is what this
	// experiment used to report implicitly (and what any closed-loop
	// driver reports); the gap between the two tails is the queueing
	// delay coordinated omission hides.
	Response obs.HistogramSnapshot
	Service  obs.HistogramSnapshot
}

// callTimer is the transport hook behind repdir_rep_call_latency_seconds:
// it times each call to one member by operation.
type callTimer struct {
	dir rep.Directory
	mu  sync.Mutex
	lat map[transport.Op]*obs.Histogram
}

func (t *callTimer) Name() string { return t.dir.Name() }

func (t *callTimer) Enter(ctx context.Context, _ transport.Op) (transport.Call, error) {
	return transport.Call{Ctx: ctx, Dir: t.dir, Note: time.Now()}, nil
}

func (t *callTimer) Exit(c transport.Call, op transport.Op, err error) error {
	d := time.Since(c.Note.(time.Time))
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lat[op] == nil {
		t.lat[op] = &obs.Histogram{}
	}
	t.lat[op].Observe(d)
	return err
}

// samples appends the member's per-operation histograms, labeled member
// then op.
func (t *callTimer) samples(out []obs.HistSample) []obs.HistSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	for op, h := range t.lat {
		out = append(out, obs.HistSample{Labels: []string{t.Name(), string(op)}, Snap: h.Snapshot()})
	}
	return out
}

// RunTraffic drives a mixed workload against a 3-2-2 suite for the
// configured duration. All four single-key operations plus scans run in
// a seeded random mix.
func RunTraffic(cfg TrafficConfig) (TrafficResult, error) {
	cfg = cfg.withDefaults()
	res := TrafficResult{Config: cfg}
	ctx := context.Background()

	names := []string{"rep0", "rep1", "rep2"}
	reps := make([]*rep.Rep, len(names))
	timers := make([]*callTimer, len(names))
	dirs := make([]rep.Directory, len(names))
	for i, n := range names {
		reps[i] = rep.New(n)
		timers[i] = &callTimer{dir: transport.NewLocal(reps[i]), lat: map[transport.Op]*obs.Histogram{}}
		dirs[i] = &transport.Middleware{Hook: timers[i]}
	}
	qc := quorum.NewUniform(dirs, 2, 2)

	deletes := &collector{}
	suite, err := core.NewSuite(qc,
		core.WithSelector(quorum.NewRandomSelector(qc, cfg.Seed)),
		core.WithMetrics(deletes),
	)
	if err != nil {
		return res, err
	}
	defer suite.Close()

	if reg := cfg.Registry; reg != nil {
		suite.RegisterMetrics(reg)
		reg.CounterVec("repdir_rep_ops_total",
			"Cumulative per-representative operation counts.",
			[]string{"member", "op"}, func() []obs.Sample {
				var out []obs.Sample
				for i, r := range reps {
					for op, v := range r.Counters().Map() {
						out = append(out, obs.Sample{Labels: []string{names[i], op}, Value: float64(v)})
					}
				}
				return out
			})
		reg.HistogramVec("repdir_rep_call_latency_seconds",
			"Per-member transport call latency by operation.",
			[]string{"member", "op"}, func() []obs.HistSample {
				var out []obs.HistSample
				for _, t := range timers {
					out = t.samples(out)
				}
				return out
			})
	}

	live := make([]string, cfg.Entries)
	for i := range live {
		live[i] = fmt.Sprintf("key-%05d", i)
		if err := suite.Insert(ctx, live[i], "v0"); err != nil {
			return res, fmt.Errorf("sim: traffic seed %s: %w", live[i], err)
		}
	}

	// doOp runs one operation of the seeded mix and reports its label.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	next := cfg.Entries
	doOp := func(op int) (string, error) {
		switch r := rng.Intn(10); {
		case r < 5: // lookups dominate, as in the paper's workload
			k := live[rng.Intn(len(live))]
			if _, found, err := suite.Lookup(ctx, k); err != nil {
				return "", fmt.Errorf("sim: traffic lookup %s: %w", k, err)
			} else if !found {
				return "", fmt.Errorf("sim: traffic key %s vanished", k)
			}
			return "lookup", nil
		case r < 7: // update
			k := live[rng.Intn(len(live))]
			if err := suite.Update(ctx, k, fmt.Sprintf("v%d", op)); err != nil {
				return "", fmt.Errorf("sim: traffic update %s: %w", k, err)
			}
			return "update", nil
		case r < 8: // insert a fresh key
			k := fmt.Sprintf("key-%05d", next)
			next++
			if err := suite.Insert(ctx, k, fmt.Sprintf("v%d", op)); err != nil {
				return "", fmt.Errorf("sim: traffic insert %s: %w", k, err)
			}
			live = append(live, k)
			return "insert", nil
		case r < 9 && len(live) > 1: // delete, keeping the set non-empty
			i := rng.Intn(len(live))
			k := live[i]
			if err := suite.Delete(ctx, k); err != nil {
				return "", fmt.Errorf("sim: traffic delete %s: %w", k, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			return "delete", nil
		default: // short scan
			if _, err := suite.Scan(ctx, live[rng.Intn(len(live))], 8); err != nil {
				return "", fmt.Errorf("sim: traffic scan: %w", err)
			}
			return "scan", nil
		}
	}

	// Arrivals follow the trafficRate schedule; latency is charged from each
	// operation's intended start, not from when the single closed-loop
	// client got around to it. This run used to measure service time
	// only, which understated the tail whenever the suite fell behind
	// the offered load.
	//
	// An operation's messages are the calls the members served while it
	// ran: the one client runs on a sequential quorum, so each
	// operation's release or commit round has landed by the time it
	// returns.
	calls := func() (n uint64) {
		for _, r := range reps {
			c := r.Counters()
			n += c.Lookups + c.NeighborProbes + c.Inserts + c.Coalesces + c.Prepares + c.Commits + c.Aborts
		}
		return n
	}
	msgs := map[string]uint64{}
	rec := workload.NewRecorder()
	interval := time.Second / trafficRate
	startAt := time.Now()
	deadline := startAt.Add(cfg.Duration)
	for n := 0; ; n++ {
		intended := startAt.Add(time.Duration(n) * interval)
		if intended.After(deadline) {
			break
		}
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		execStart, before := time.Now(), calls()
		label, err := doOp(n)
		if err != nil {
			return res, err
		}
		rec.Record(label, intended, execStart, time.Now())
		msgs[label] += calls() - before
	}
	res.Response = rec.Response()
	res.Service = rec.Service()

	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := suite.Drain(dctx); err != nil {
		return res, fmt.Errorf("sim: traffic drain: %w", err)
	}

	res.Suite = suite.Stats()
	res.Ops = make(map[string]uint64, len(msgs))
	res.Messages = make(map[string]float64, len(msgs))
	for op, h := range rec.PerOp() {
		res.Ops[op] = h.Count
		res.Messages[op] = float64(msgs[op]) / float64(h.Count)
	}
	res.ProbesPerDelete = deletes.rpcs.Mean()
	return res, nil
}

// FormatTraffic renders the run as a text report: per-op counts and
// live messages/op, the suite's outcome accounting, and latency.
func FormatTraffic(r TrafficResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live traffic — 3-2-2 suite, %d seeded entries, %v mixed workload\n\n",
		r.Config.Entries, r.Config.Duration)
	ops := make([]string, 0, len(r.Ops))
	for op := range r.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprintf(&b, "  %-12s %8s %14s\n", "operation", "count", "messages/op")
	for _, op := range ops {
		fmt.Fprintf(&b, "  %-12s %8d %14.2f\n", op, r.Ops[op], r.Messages[op])
	}
	fmt.Fprintf(&b, "\n  accounting, the %d seeding inserts included: %d calls = %d commits + %d failures + %d cancelled\n",
		r.Config.Entries, r.Suite.Calls, r.Suite.Commits, r.Suite.Failures, r.Suite.Cancelled)
	fmt.Fprintf(&b, "  neighbor probes per delete: %.2f (paper section 4 predicts ~2 with batching)\n",
		r.ProbesPerDelete)
	if r.Response.Count > 0 {
		fmt.Fprintf(&b, "\n  latency (%d ops at %d/s intended):\n", r.Response.Count, trafficRate)
		fmt.Fprintf(&b, "  %-10s %12s %12s %12s %12s\n", "", "p50", "p99", "p999", "max")
		row := func(name string, s obs.HistogramSnapshot) {
			fmt.Fprintf(&b, "  %-10s %12v %12v %12v %12v\n", name,
				s.Quantile(0.50), s.Quantile(0.99), s.Quantile(0.999), s.Max)
		}
		row("response", r.Response)
		row("service", r.Service)
		fmt.Fprintf(&b, "  omission delta at p99: %v (what a closed-loop driver would have hidden)\n",
			r.Response.Quantile(0.99)-r.Service.Quantile(0.99))
	}
	return b.String()
}
