package sim

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repdir/internal/core"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/txn"
	"repdir/internal/workload"
)

// The overload deployment's fixed service model. overloadServiceTime is
// the brownout slow-link imposed on every member call: it pins the
// suite's capacity low enough that modest offered rates saturate it, so
// the curve is cheap to drive. overloadPerConn is each server's
// per-connection worker pool; together they fix capacity at roughly
// overloadPerConn/overloadServiceTime member-calls per second per member.
const (
	overloadServiceTime = 2 * time.Millisecond
	overloadPerConn     = 8
)

// OverloadConfig parameterizes the overload-curve experiment: a real
// TCP-loopback 3-2-2 suite with the full protection stack (deadline
// propagation, CoDel admission, a client that never retries a refusal)
// driven by the open-loop harness at multiples of its measured capacity.
type OverloadConfig struct {
	// Keys is the preloaded key-universe size (default 2000).
	Keys int
	// Duration bounds each load point's arrival schedule (default 2s).
	Duration time.Duration
	// Workers is the driver's executor pool (default 64).
	Workers int
	// OpTimeout is the client deadline per operation (default 250ms);
	// it propagates on the wire so servers can refuse doomed work.
	OpTimeout time.Duration
	// ZipfS skews reads (default 1.2); HotFraction of updates land on a
	// 16-key write-hot set (default 0.25) so saturation includes
	// wait-die lock pressure, not just queueing.
	ZipfS       float64
	HotFraction float64
	// Points are the offered-load multiples of measured capacity
	// (default 0.5, 1, 1.5, 2 — the last point is the verdict point).
	Points []float64
	// Seed fixes the operation streams.
	Seed int64
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.Keys <= 0 {
		c.Keys = 2000
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 64
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 250 * time.Millisecond
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.HotFraction == 0 {
		c.HotFraction = 0.25
	}
	if len(c.Points) == 0 {
		c.Points = []float64{0.5, 1, 1.5, 2}
	}
	return c
}

// OverloadPoint is one load point of the curve.
type OverloadPoint struct {
	// Multiple is the offered load as a fraction of measured capacity;
	// Rate the resulting arrival rate.
	Multiple float64
	Rate     float64
	// Result is the driver's full accounting for the point.
	Result workload.Result
	// Goodput is completed error-free operations per second.
	Goodput float64
	// ServerShed / ServerExpired are the admission controllers' refusals
	// during this point, summed over the suite (deltas, not totals).
	ServerShed, ServerExpired uint64
}

// OverloadReport is the experiment's output plus its verdict.
type OverloadReport struct {
	Config OverloadConfig
	// Capacity is the goodput measured by the calibration burst.
	Capacity float64
	Points   []OverloadPoint
	// PeakGoodput is the best goodput across the points; FinalGoodput
	// the goodput at the highest offered multiple.
	PeakGoodput  float64
	FinalGoodput float64
	// Plateau: goodput at the highest multiple stayed within 20% of
	// peak — degradation, not collapse.
	Plateau bool
	// TailBounded: the response p999 at the highest multiple stayed
	// under TailBound (4x OpTimeout) — the open-loop tail of served
	// work is bounded even past saturation.
	TailBounded bool
	TailBound   time.Duration
}

// Pass is the experiment's acceptance verdict.
func (r OverloadReport) Pass() bool { return r.Plateau && r.TailBounded }

// RunOverload builds the deployment, measures its capacity with a
// saturating calibration burst, then drives the open-loop harness at
// each configured multiple of that capacity. Every server runs CoDel
// admission over a brownout-pinned service time; the client suite never
// retries a refusal (core.Retryable), but a point read asks the spare
// member once instead; every operation carries a propagated deadline. The report's verdict is the graceful-degradation
// claim: past saturation, goodput plateaus and the tail stays bounded
// while the excess is shed, visibly, at the driver and the servers.
func RunOverload(cfg OverloadConfig) (OverloadReport, error) {
	cfg = cfg.withDefaults()
	// The tail bound is 4x the op deadline, rounded up to the response
	// histogram's power-of-two bucket ceiling: the histogram reports a
	// quantile as its bucket's upper bound, so an unrounded bound would
	// fail any p999 that merely lands in the bucket straddling it.
	bound := time.Microsecond
	for bound < 4*cfg.OpTimeout {
		bound *= 2
	}
	report := OverloadReport{Config: cfg, TailBound: bound}
	ctx := context.Background()

	// Three members behind real TCP loopback servers. A fixed in-process
	// latency models each member's intrinsic service cost; CoDel
	// admission and the dispatch queue sit above it exactly as in
	// production.
	names := []string{"ovA", "ovB", "ovC"}
	servers := make([]*transport.Server, len(names))
	dirs := make([]rep.Directory, len(names))
	for i, n := range names {
		member := transport.NewLocal(rep.New(n))
		member.SetLatency(overloadServiceTime)
		// The dispatch queue is sized to the driver's concurrency: with
		// Workers in-flight operations fanning parallel quorum probes over
		// one connection, bursts of up to ~2x Workers requests are honest
		// load, and the CoDel controller (not the queue length) bounds the
		// standing delay.
		srv, err := transport.Serve(member, "127.0.0.1:0",
			transport.WithAdmission(0, 0),
			transport.WithPerConnConcurrency(overloadPerConn),
			transport.WithDispatchQueue(4*cfg.Workers))
		if err != nil {
			return report, fmt.Errorf("sim: overload serve %s: %w", n, err)
		}
		defer srv.Close()
		servers[i] = srv
		client, err := transport.Dial(srv.Addr())
		if err != nil {
			return report, fmt.Errorf("sim: overload dial %s: %w", n, err)
		}
		defer client.Close()
		dirs[i] = client
	}
	qc := quorum.NewUniform(dirs, 2, 2)
	suite, err := core.NewSuite(qc,
		core.WithSelector(quorum.NewStickySelector(qc)),
		core.WithParallelQuorum(true),
		core.WithIDSource(txn.NewIDSource(511)))
	if err != nil {
		return report, err
	}

	if err := workload.Preload(ctx, suite, cfg.Keys, 128, 8, workload.SuiteRunner(suite)); err != nil {
		return report, fmt.Errorf("sim: overload preload: %w", err)
	}

	base := workload.Config{
		Mix:         workload.ReadHeavy,
		Keys:        cfg.Keys,
		Duration:    cfg.Duration,
		Workers:     cfg.Workers,
		ZipfS:       cfg.ZipfS,
		HotFraction: cfg.HotFraction,
		OpTimeout:   cfg.OpTimeout,
		Seed:        cfg.Seed,
	}

	admission := func() (shed, expired uint64) {
		for _, s := range servers {
			st := s.AdmissionStats()
			shed += st.Shed
			expired += st.Expired
		}
		return
	}

	// Calibration: a staircase of short bursts at doubling rates,
	// stopping once goodput falls off the best seen (the knee). Capacity
	// is the best goodput achieved under the full protection stack — the
	// obvious alternative, one probe at deep saturation, would read the
	// post-protection goodput well below the knee and park every curve
	// point under the true capacity, proving nothing about behavior past
	// it.
	rate := float64(overloadPerConn) / overloadServiceTime.Seconds() / 4
	for i := 0; i < 6; i++ {
		probe := base
		probe.Mix.Name = fmt.Sprintf("cal@%.0f", rate)
		probe.Rate = rate
		probe.Duration = cfg.Duration / 2
		probeRes, err := workload.Run(ctx, suite, probe)
		if err != nil {
			return report, fmt.Errorf("sim: overload calibration: %w", err)
		}
		g := goodput(probeRes)
		if g > report.Capacity {
			report.Capacity = g
		} else if g < 0.9*report.Capacity {
			break
		}
		rate *= 2
	}
	if report.Capacity <= 0 {
		return report, fmt.Errorf("sim: overload calibration measured zero goodput")
	}

	for _, mult := range cfg.Points {
		pc := base
		pc.Mix.Name = fmt.Sprintf("%.2gx", mult)
		pc.Rate = mult * report.Capacity
		shed0, exp0 := admission()
		res, err := workload.Run(ctx, suite, pc)
		if err != nil {
			return report, fmt.Errorf("sim: overload point %.2gx: %w", mult, err)
		}
		shed1, exp1 := admission()
		report.Points = append(report.Points, OverloadPoint{
			Multiple:      mult,
			Rate:          pc.Rate,
			Result:        res,
			Goodput:       goodput(res),
			ServerShed:    shed1 - shed0,
			ServerExpired: exp1 - exp0,
		})
	}

	for _, p := range report.Points {
		if p.Goodput > report.PeakGoodput {
			report.PeakGoodput = p.Goodput
		}
	}
	last := report.Points[len(report.Points)-1]
	report.FinalGoodput = last.Goodput
	report.Plateau = report.FinalGoodput >= 0.8*report.PeakGoodput
	report.TailBounded = last.Result.Response.Quantile(0.999) <= report.TailBound
	return report, nil
}

// goodput is completed error-free operations per second of the run.
func goodput(r workload.Result) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	ok := r.Completed - r.Errors
	return float64(ok) / r.Elapsed.Seconds()
}

// FormatOverload renders the curve, one row a load point, followed by
// the plateau and tail verdicts.
func FormatOverload(r OverloadReport) string {
	var b strings.Builder
	c := r.Config
	fmt.Fprintf(&b,
		"Overload curve — %d keys, 3-2-2 TCP suite, %v service time, CoDel admission, %v op deadline, seed %d\n",
		c.Keys, overloadServiceTime, c.OpTimeout, c.Seed)
	fmt.Fprintf(&b, "capacity (calibrated goodput under protection): %.0f ops/s\n\n", r.Capacity)
	fmt.Fprintf(&b, "  %-6s %9s %9s %9s %9s %9s %9s %10s %10s\n",
		"load", "offered", "goodput", "errs", "cli-shed", "srv-shed", "expired", "p99", "p999")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-6s %9.0f %9.0f %9d %9d %9d %9d %10v %10v\n",
			fmt.Sprintf("%.2gx", p.Multiple), p.Rate, p.Goodput, p.Result.Errors,
			p.Result.Shed, p.ServerShed, p.ServerExpired,
			p.Result.Response.Quantile(0.99).Round(time.Microsecond),
			p.Result.Response.Quantile(0.999).Round(time.Microsecond))
		if len(p.Result.ErrorKinds) > 0 {
			fmt.Fprintf(&b, "         errors: %v\n", p.Result.ErrorKinds)
		}
	}
	verdict := func(ok bool) string {
		if ok {
			return "pass"
		}
		return "FAIL"
	}
	fmt.Fprintf(&b, "\n  plateau: final goodput %.0f vs peak %.0f (floor 80%%) — %s\n",
		r.FinalGoodput, r.PeakGoodput, verdict(r.Plateau))
	last := r.Points[len(r.Points)-1]
	fmt.Fprintf(&b, "  tail:    p999 %v vs bound %v — %s\n",
		last.Result.Response.Quantile(0.999).Round(time.Microsecond), r.TailBound, verdict(r.TailBounded))
	return b.String()
}
