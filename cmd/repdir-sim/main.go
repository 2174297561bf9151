// Command repdir-sim regenerates the paper's evaluation (section 4 and
// the section 5 discussion) as text tables, and runs the simulator's
// fault soaks and its one open-loop curve:
//
//	repdir-sim -experiment fig14    # Figure 14: config sweep at ~100 entries
//	repdir-sim -experiment fig15    # Figure 15: 3-2-2 at 100/1k/10k entries
//	repdir-sim -experiment fig16    # Figure 16: locality configuration
//	repdir-sim -experiment sticky   # section 5 sticky-quorum ablation
//	repdir-sim -experiment batch    # section 4 neighbor-batching ablation
//	repdir-sim -experiment model    # section 5 analytic model vs simulation
//	repdir-sim -experiment skew     # uniform vs Zipf(1.3) key-selection ablation
//	repdir-sim -experiment scale    # throughput as concurrent clients grow
//	repdir-sim -experiment conc     # section 2 concurrency comparison
//	repdir-sim -experiment chaos    # fault-injection soak (crash/partition/duplicate)
//	repdir-sim -experiment heal     # lookup cost of a down member + anti-entropy recovery curve
//	repdir-sim -experiment storage  # crash points, salvage recovery curve, rebuild throughput
//	repdir-sim -experiment overload # overload curve: goodput plateau + bounded tail past saturation
//	repdir-sim -experiment all      # everything
//
// The -ops flag overrides the per-run operation count (the paper used
// 10,000 for Figure 14 and 100,000 for Figure 15); -seed fixes the
// random workload. -keys and -duration size the overload curve's key
// universe and the length of each of its load points. A failed soak or
// a failed overload verdict exits 1.
//
// Messages per operation, the paper's cost unit, are the Figure 14-16
// tables here; for the suite as deployed they are pinned by
// internal/core's rounds_test.go and read as the benchmark's
// msgs_per_op (bench/). Live metrics come from repdir-server -obs.addr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repdir/internal/sim"
)

// experiments lists every experiment, in the order -experiment all runs
// them.
var experiments = []string{"fig14", "fig15", "fig16", "sticky", "batch", "model", "skew", "scale", "conc", "chaos", "heal", "storage", "overload"}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repdir-sim:", err)
		os.Exit(1)
	}
}

// flags holds the parameters the experiments read.
type flags struct {
	seed               int64
	ops, clients, keys int
	latency, duration  time.Duration
}

func run(args []string) error {
	fs := flag.NewFlagSet("repdir-sim", flag.ContinueOnError)
	var f flags
	experiment := fs.String("experiment", "all", strings.Join(experiments, ", ")+", or all")
	fs.Int64Var(&f.seed, "seed", 1983, "workload seed")
	fs.IntVar(&f.ops, "ops", 0, "override operations per run (0 = paper's values)")
	fs.IntVar(&f.clients, "clients", 8, "concurrent clients for the concurrency comparison")
	fs.DurationVar(&f.latency, "latency", 200*time.Microsecond, "simulated per-message latency for the concurrency comparison")
	fs.DurationVar(&f.duration, "duration", 0, "length of each overload load point (0 = default)")
	fs.IntVar(&f.keys, "keys", 0, "key-universe size for the overload experiment (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	runs := f.runs()
	if *experiment != "all" {
		fn, ok := runs[*experiment]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want %s, or all)", *experiment, strings.Join(experiments, ", "))
		}
		return timed(*experiment, fn)
	}
	for _, name := range experiments {
		if err := timed(name, runs[name]); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// runs maps each experiment's name to the function that runs it under f.
func (f *flags) runs() map[string]func() error {
	return map[string]func() error{
		"fig14": func() error {
			results, err := runFigure14(f.seed, f.ops)
			if err != nil {
				return err
			}
			fmt.Print(sim.FormatResults(
				"Figure 14 — ~100-entry directories, 10,000 operations, random quorums", results))
			return nil
		},
		"fig15": func() error {
			opsPerRun := f.ops
			if opsPerRun == 0 {
				opsPerRun = 100000
			}
			results, err := sim.RunFigure15(f.seed, opsPerRun)
			if err != nil {
				return err
			}
			fmt.Print(sim.FormatResults(
				fmt.Sprintf("Figure 15 — 3-2-2 directory suites, %d operations", opsPerRun), results))
			return nil
		},
		"fig16": func() error {
			opsPerType := f.ops
			if opsPerType == 0 {
				opsPerType = 2000
			}
			stats, err := sim.RunFigure16(opsPerType)
			if err != nil {
				return err
			}
			fmt.Print(sim.FormatLocality(stats))
			return nil
		},
		"sticky": func() error {
			opsPerRun := f.ops
			if opsPerRun == 0 {
				opsPerRun = 10000
			}
			random, sticky, err := sim.RunStickyQuorumAblation(f.seed, opsPerRun)
			if err != nil {
				return err
			}
			fmt.Print(sim.FormatResults(
				"Section 5 ablation — random vs sticky write quorums (3-2-2, ~100 entries)",
				[]sim.Result{random, sticky}))
			return nil
		},
		"batch": func() error {
			opsPerRun := f.ops
			if opsPerRun == 0 {
				opsPerRun = 10000
			}
			single, batched, err := sim.RunBatchingAblation(f.seed, opsPerRun)
			if err != nil {
				return err
			}
			fmt.Print(sim.FormatResults(
				"Section 4 ablation — neighbor probe batching (3-2-2, ~100 entries)",
				[]sim.Result{single, batched}))
			return nil
		},
		"skew": func() error {
			opsPerRun := f.ops
			if opsPerRun == 0 {
				opsPerRun = 10000
			}
			uniform, skewed, err := sim.RunSkewAblation(f.seed, opsPerRun, 1.3)
			if err != nil {
				return err
			}
			fmt.Print(sim.FormatResults(
				"Workload-skew ablation — uniform vs Zipf(1.3) key selection (3-2-2, ~100 entries)",
				[]sim.Result{uniform, skewed}))
			return nil
		},
		"model": func() error {
			comps, err := sim.RunModelComparison(f.seed, f.ops)
			if err != nil {
				return err
			}
			fmt.Print(sim.FormatModelComparison(comps))
			return nil
		},
		"scale": func() error {
			opsPerClient := f.ops
			if opsPerClient == 0 {
				opsPerClient = 25
			}
			points, err := sim.RunScalability([]int{1, 2, 4, 8, 16}, opsPerClient, f.latency)
			if err != nil {
				return err
			}
			fmt.Print(sim.FormatScalability(points, f.latency))
			return nil
		},
		"chaos": func() error {
			opsPerSeed := f.ops
			if opsPerSeed == 0 {
				opsPerSeed = 2000
			}
			seeds := make([]int64, 5)
			for i := range seeds {
				seeds[i] = f.seed + int64(i)
			}
			results, err := sim.RunChaosSeeds(sim.ChaosConfig{Operations: opsPerSeed}, seeds)
			if err != nil {
				return err
			}
			fmt.Print(sim.FormatChaos(
				fmt.Sprintf("Chaos soak — 3-2-2 suite, %d ops/seed under crash/partition/duplicate/drop injection", opsPerSeed),
				results))
			for _, r := range results {
				if len(r.Violations) > 0 {
					return fmt.Errorf("chaos: seed %d violated single-copy semantics (replay with -seed %d)",
						r.Config.Seed, r.Config.Seed)
				}
			}
			return nil
		},
		"heal": func() error {
			res, err := sim.RunHeal(sim.HealConfig{Seed: f.seed, Ops: f.ops})
			if err != nil {
				return err
			}
			fmt.Print(sim.FormatHeal(res))
			return nil
		},
		"storage": func() error {
			res, err := sim.RunStorage(sim.StorageConfig{Seed: f.seed, Commits: f.ops})
			if err != nil {
				return err
			}
			fmt.Print(sim.FormatStorage(res))
			return nil
		},
		"overload": func() error {
			report, err := sim.RunOverload(sim.OverloadConfig{
				Keys:     f.keys,
				Duration: f.duration,
				Seed:     f.seed,
			})
			if err != nil {
				return err
			}
			fmt.Print(sim.FormatOverload(report))
			if !report.Pass() {
				return fmt.Errorf("overload: goodput collapsed or tail unbounded past saturation (plateau=%v tail=%v)",
					report.Plateau, report.TailBounded)
			}
			return nil
		},
		"conc": func() error {
			opsPerClient := f.ops
			if opsPerClient == 0 {
				opsPerClient = 25
			}
			res, err := sim.RunConcurrencyComparison(f.clients, opsPerClient, f.latency)
			if err != nil {
				return err
			}
			fmt.Println("Section 2 concurrency comparison (disjoint-range updates):")
			fmt.Println(" ", res)
			return nil
		},
	}
}

// runFigure14 honors the -ops override.
func runFigure14(seed int64, ops int) ([]sim.Result, error) {
	if ops == 0 {
		return sim.RunFigure14(seed)
	}
	var out []sim.Result
	for _, cfg := range sim.Figure14Configs(seed) {
		cfg.Operations = ops
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// timed runs fn and reports its wall-clock duration.
func timed(name string, fn func() error) error {
	start := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}
