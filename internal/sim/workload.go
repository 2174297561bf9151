package sim

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repdir/internal/core"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/shard"
	"repdir/internal/transport"
	"repdir/internal/txn"
	"repdir/internal/workload"
)

// WorkloadConfig parameterizes the open-loop workload experiment: a
// sharded deployment of sticky 3-2-2 suites serving a dense key
// universe, driven by the internal/workload open-loop harness through
// the standard mixes.
type WorkloadConfig struct {
	// Keys is the key-universe size (default 100,000).
	Keys int
	// Shards splits the universe over that many suites (default 4).
	Shards int
	// Rate is the open-loop arrival rate per mix, ops/second
	// (default 4000).
	Rate float64
	// Duration bounds each mix's arrival schedule (default 3s).
	Duration time.Duration
	// Workers is the executor pool per mix (default 32).
	Workers int
	// Seed fixes every mix's operation stream. Zero is a valid,
	// replayable seed (not coerced).
	Seed int64
}

// The workload experiment's fixed mix parameters: the read-heavy mixes
// draw keys Zipf-skewed by workloadZipfS (the update-heavy mix runs
// uniform to spread write locks), and the session mix runs
// workloadSessions client sessions. workloadSLO is every mix's latency
// objective: p50 ≤ 50ms, p99 ≤ 500ms, p999 ≤ 2s, shed ≤ 0.1% —
// generous enough for a noisy CI host, tight enough that a
// coordinated-omission regression (which inflates the response tail by
// the backlog it hides) fails loudly.
const (
	workloadZipfS    = 1.2
	workloadSessions = 8
)

var workloadSLO = workload.SLO{
	P50:             50 * time.Millisecond,
	P99:             500 * time.Millisecond,
	P999:            2 * time.Second,
	MaxShedFraction: 0.001,
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.Keys <= 0 {
		c.Keys = 100000
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Rate <= 0 {
		c.Rate = 4000
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 32
	}
	return c
}

// WorkloadReport is the experiment's full output: preload cost plus one
// workload.Result per mix, in run order.
type WorkloadReport struct {
	Config         WorkloadConfig
	PreloadElapsed time.Duration
	// PreloadRate is keys installed per second during preload.
	PreloadRate float64
	Mixes       []workload.Result
}

// RunWorkload builds the sharded deployment, preloads the universe, and
// drives the standard mixes through it: zipfian read-heavy, uniform
// update-heavy, zipfian scan-heavy, then read-heavy again through
// client sessions (read-your-writes floors, local reads at each suite's
// sticky first member under a client-side staleness lease).
func RunWorkload(cfg WorkloadConfig) (WorkloadReport, error) {
	cfg = cfg.withDefaults()
	report := WorkloadReport{Config: cfg}
	ctx := context.Background()

	suites := make([]*core.Suite, cfg.Shards)
	for i := range suites {
		names := make([]string, 3)
		dirs := make([]rep.Directory, 3)
		for j := range dirs {
			names[j] = fmt.Sprintf("s%dr%d", i, j)
			dirs[j] = transport.NewLocal(rep.New(names[j]))
		}
		qc := quorum.NewUniform(dirs, 2, 2)
		// Sticky quorums keep the first member in every read and write
		// quorum, so designating it the local-read member means sessions
		// read a replica that has seen every committed write.
		s, err := core.NewSuite(qc,
			core.WithSelector(quorum.NewStickySelector(qc)),
			core.WithLocalReads(names[0]),
			core.WithIDSource(txn.NewIDSource(uint16(i))),
			core.WithParallelQuorum(true))
		if err != nil {
			return report, err
		}
		suites[i] = s
	}
	splits := make([]string, cfg.Shards-1)
	for i := range splits {
		splits[i] = workload.Key((i + 1) * cfg.Keys / cfg.Shards)
	}
	m, err := shard.NewMap(splits...)
	if err != nil {
		return report, err
	}
	router, err := shard.NewRouter(m, suites,
		shard.WithIDSource(txn.NewIDSource(1023)),
		shard.WithParallelStitch(true))
	if err != nil {
		return report, err
	}

	start := time.Now()
	if err := workload.Preload(ctx, router, cfg.Keys, 256, 16, workload.RouterRunner(router)); err != nil {
		return report, fmt.Errorf("sim: workload preload: %w", err)
	}
	report.PreloadElapsed = time.Since(start)
	report.PreloadRate = float64(cfg.Keys) / report.PreloadElapsed.Seconds()

	base := workload.Config{
		Keys:     cfg.Keys,
		Rate:     cfg.Rate,
		Duration: cfg.Duration,
		Workers:  cfg.Workers,
		Seed:     cfg.Seed,
		SLO:      workloadSLO,
	}
	mixes := []workload.Config{
		func(c workload.Config) workload.Config {
			c.Mix, c.ZipfS = workload.ReadHeavy, workloadZipfS
			return c
		}(base),
		func(c workload.Config) workload.Config {
			c.Mix = workload.UpdateHeavy
			return c
		}(base),
		func(c workload.Config) workload.Config {
			c.Mix, c.ZipfS = workload.ScanHeavy, workloadZipfS
			// A scan reads ~50 entries stitched across shard
			// boundaries — dozens of point-ops' worth of work — so both
			// the offered rate and the latency objective scale: 1/16th
			// the rate, 4x the objective. Holding scans to the point-op
			// SLO at the point-op rate just measures saturation.
			c.Rate = cfg.Rate / 16
			c.SLO = workload.SLO{
				P50:             4 * c.SLO.P50,
				P99:             4 * c.SLO.P99,
				P999:            4 * c.SLO.P999,
				MaxShedFraction: c.SLO.MaxShedFraction,
			}
			return c
		}(base),
		func(c workload.Config) workload.Config {
			c.Mix, c.ZipfS = workload.ReadHeavy, workloadZipfS
			c.Mix.Name = "read-heavy-sessions"
			c.Sessions = workloadSessions
			c.LeaseTTL = time.Second
			return c
		}(base),
	}
	for _, mc := range mixes {
		res, err := workload.Run(ctx, router, mc)
		if err != nil {
			return report, fmt.Errorf("sim: workload mix %s: %w", mc.Mix.Name, err)
		}
		report.Mixes = append(report.Mixes, res)
	}
	return report, nil
}

// FormatWorkload renders the per-mix table: offered and completed work,
// response-time quantiles and each mix's SLO verdict.
func FormatWorkload(r WorkloadReport) string {
	var b strings.Builder
	c := r.Config
	fmt.Fprintf(&b,
		"Open-loop workload — %d keys over %d sticky 3-2-2 shards, %.0f ops/s intended, %v per mix, seed %d\n",
		c.Keys, c.Shards, c.Rate, c.Duration, c.Seed)
	fmt.Fprintf(&b, "preload: %d keys in %v (%.0f keys/s)\n\n",
		c.Keys, r.PreloadElapsed.Round(time.Millisecond), r.PreloadRate)
	fmt.Fprintf(&b, "  %-20s %9s %9s %6s %5s %10s %10s %10s %10s %7s\n",
		"mix", "offered", "done", "shed", "err", "ops/sec", "p50", "p99", "p999", "slo")
	for _, m := range r.Mixes {
		verdict := "-"
		if m.Verdict.Checked {
			if m.Verdict.Pass {
				verdict = "pass"
			} else {
				verdict = "FAIL"
			}
		}
		fmt.Fprintf(&b, "  %-20s %9d %9d %6d %5d %10.0f %10v %10v %10v %7s\n",
			m.Config.Mix.Name, m.Offered, m.Completed, m.Shed, m.Errors, m.Throughput,
			m.Verdict.P50.Round(time.Microsecond), m.Verdict.P99.Round(time.Microsecond),
			m.Verdict.P999.Round(time.Microsecond), verdict)
		for _, f := range m.Verdict.Failures {
			fmt.Fprintf(&b, "      slo miss: %s\n", f)
		}
		if m.Config.Sessions > 0 {
			total := m.LocalReads + m.LocalFallbacks
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(m.LocalReads) / float64(total)
			}
			fmt.Fprintf(&b, "      sessions: %d local reads, %d quorum fallbacks (%.1f%% one-message reads)\n",
				m.LocalReads, m.LocalFallbacks, pct)
		}
	}
	// The coordinated-omission story, made visible: response vs service
	// tails for the heaviest mix.
	if len(r.Mixes) > 0 {
		m := r.Mixes[0]
		fmt.Fprintf(&b, "\n  omission delta (%s, p99): response %v vs service %v\n",
			m.Config.Mix.Name,
			m.Response.Quantile(0.99).Round(time.Microsecond),
			m.Service.Quantile(0.99).Round(time.Microsecond))
	}
	return b.String()
}
