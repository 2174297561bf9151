// Package repdir's root benchmark harness regenerates every table and
// figure of the paper's evaluation:
//
//	BenchmarkFigure14            — section 4, Figure 14 config sweep
//	BenchmarkFigure15            — section 4, Figure 15 size sweep
//	BenchmarkFigure16            — section 5, Figure 16 locality
//	BenchmarkAblationStickyQuorum — section 5 sticky-quorum observation
//	BenchmarkAblationConcurrency — section 2 concurrency motivation
//	BenchmarkAvailability        — sections 1-2 availability claims
//
// The paper's statistics are attached to each benchmark as custom
// metrics (E-avg, D-avg, I-avg, ...), so `go test -bench .` prints the
// reproduced values next to the timing. Micro-benchmarks for the
// directory operations themselves follow.
package repdir

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repdir/internal/availability"
	"repdir/internal/core"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/shard"
	"repdir/internal/sim"
	"repdir/internal/transport"
)

// reportPaperStats attaches the three section 4 statistics to the
// benchmark output.
func reportPaperStats(b *testing.B, res sim.Result) {
	b.Helper()
	b.ReportMetric(res.EntriesCoalesced.Avg, "E-avg")
	b.ReportMetric(res.EntriesCoalesced.Max, "E-max")
	b.ReportMetric(res.GhostDeletions.Avg, "D-avg")
	b.ReportMetric(res.Insertions.Avg, "I-avg")
	b.ReportMetric(float64(res.Deletes)/float64(b.N), "deletes/op")
}

// BenchmarkFigure14 regenerates the Figure 14 sweep: ~100-entry
// directories, 10,000 operations, random quorums, one sub-benchmark per
// suite configuration.
func BenchmarkFigure14(b *testing.B) {
	for _, cfg := range sim.Figure14Configs(1983) {
		cfg := cfg
		b.Run(cfg.String(), func(b *testing.B) {
			var last sim.Result
			for i := 0; i < b.N; i++ {
				cfg.Seed = 1983 + int64(i)
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportPaperStats(b, last)
		})
	}
}

// BenchmarkFigure15 regenerates Figure 15: 3-2-2 suites at one hundred,
// one thousand, and ten thousand entries, 100,000 operations each.
func BenchmarkFigure15(b *testing.B) {
	for _, cfg := range sim.Figure15Configs(1983) {
		cfg := cfg
		b.Run(fmt.Sprintf("entries=%d", cfg.InitialEntries), func(b *testing.B) {
			var last sim.Result
			for i := 0; i < b.N; i++ {
				cfg.Seed = 1983 + int64(i)
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportPaperStats(b, last)
			b.ReportMetric(last.EntriesCoalesced.StdDev, "E-std")
			b.ReportMetric(last.GhostDeletions.StdDev, "D-std")
			b.ReportMetric(last.Insertions.StdDev, "I-std")
		})
	}
}

// BenchmarkFigure16 regenerates the locality experiment and reports the
// local-inquiry fraction (the paper's claim: 1.0) and the imbalance of
// remote writes (claim: ~0).
func BenchmarkFigure16(b *testing.B) {
	var stats []sim.LocalityStats
	for i := 0; i < b.N; i++ {
		var err error
		stats, err = sim.RunFigure16(2000)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range stats {
		b.ReportMetric(s.LocalReadFraction(), "localreads-"+s.ClientType)
	}
}

// BenchmarkAblationStickyQuorum contrasts random and sticky write
// quorums (section 5): sticky membership should drive the coalescing
// overheads to zero.
func BenchmarkAblationStickyQuorum(b *testing.B) {
	var random, sticky sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		random, sticky, err = sim.RunStickyQuorumAblation(1983+int64(i), 10000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(random.GhostDeletions.Avg, "D-avg-random")
	b.ReportMetric(sticky.GhostDeletions.Avg, "D-avg-sticky")
	b.ReportMetric(random.Insertions.Avg, "I-avg-random")
	b.ReportMetric(sticky.Insertions.Avg, "I-avg-sticky")
}

// BenchmarkAblationBatching contrasts the base Figure 12 neighbor search
// (one neighbor per message) with the section 4 batching suggestion
// (three per message), reporting neighbor RPCs per delete for each.
func BenchmarkAblationBatching(b *testing.B) {
	var single, batched sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		single, batched, err = sim.RunBatchingAblation(1983+int64(i), 10000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(single.NeighborRPCs.Avg, "rpcs/delete-fanout1")
	b.ReportMetric(batched.NeighborRPCs.Avg, "rpcs/delete-fanout3")
}

// BenchmarkScalability measures the section 5 concurrency question —
// throughput of disjoint-range updates as clients grow — reporting
// throughput at 1 and 8 clients.
func BenchmarkScalability(b *testing.B) {
	var points []sim.ScalabilityPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = sim.RunScalability([]int{1, 8}, 20, 100*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].Throughput, "ops/s-1client")
	b.ReportMetric(points[1].Throughput, "ops/s-8clients")
	b.ReportMetric(points[1].Throughput/points[0].Throughput, "scaling-8x")
}

// BenchmarkAblationConcurrency measures the section 2 motivation: the
// wall-clock advantage of range locking over directory-as-file locking
// under disjoint concurrent updates.
func BenchmarkAblationConcurrency(b *testing.B) {
	var res sim.ConcurrencyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sim.RunConcurrencyComparison(8, 10, 100*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Speedup(), "speedup")
}

// BenchmarkAvailability evaluates the read/write availability curves for
// the canonical configurations.
func BenchmarkAvailability(b *testing.B) {
	configs := []availability.Config{
		availability.Uniform(3, 2, 2),
		availability.Uniform(3, 1, 3),
		availability.Uniform(3, 3, 1),
		availability.Uniform(5, 3, 3),
		availability.Uniform(5, 1, 5),
		availability.Uniform(7, 4, 4),
	}
	ps := []float64{0.5, 0.9, 0.95, 0.99, 0.999}
	for i := 0; i < b.N; i++ {
		for _, cfg := range configs {
			if _, err := availability.Curve(cfg, ps); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Headline numbers: 3-2-2 at p=0.9 for both classes.
	pt, err := availability.Curve(availability.Uniform(3, 2, 2), []float64{0.9})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(pt[0].Read, "read-avail-3-2-2-p0.9")
	b.ReportMetric(pt[0].Write, "write-avail-3-2-2-p0.9")
}

// --- operation micro-benchmarks ------------------------------------------

// fanOutModes are the two ways a round's member calls can be sent: one
// after the other, and concurrently — the only place fanOut's and the 2PC
// rounds' goroutines show in a micro-benchmark.
var fanOutModes = []struct {
	name     string
	parallel bool
}{{"sequential", false}, {"parallel", true}}

// newBenchSuite builds an in-process 3-2-2 suite whose members are named
// with prefix.
func newBenchSuite(b *testing.B, prefix string, parallel bool) *core.Suite {
	dirs := make([]rep.Directory, 3)
	for i := range dirs {
		dirs[i] = transport.NewLocal(rep.New(fmt.Sprintf("%s%d", prefix, i)))
	}
	suite, err := core.NewSuite(quorum.NewUniform(dirs, 2, 2), core.WithParallelQuorum(parallel))
	if err != nil {
		b.Fatal(err)
	}
	return suite
}

// eachFanOut runs fn against an in-process 3-2-2 suite pre-loaded with n
// keys, in each of the fanOutModes.
func eachFanOut(b *testing.B, n int, fn func(b *testing.B, suite *core.Suite, keys []string)) {
	for _, mode := range fanOutModes {
		b.Run(mode.name, func(b *testing.B) {
			suite := newBenchSuite(b, "rep", mode.parallel)
			ctx := context.Background()
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%08d", i)
				if err := suite.Insert(ctx, keys[i], "value"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			fn(b, suite, keys)
		})
	}
}

// BenchmarkSuiteLookup measures quorum lookups on a 1,000-entry 3-2-2
// suite.
func BenchmarkSuiteLookup(b *testing.B) {
	eachFanOut(b, 1000, func(b *testing.B, suite *core.Suite, keys []string) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, found, err := suite.Lookup(ctx, keys[i%len(keys)]); err != nil || !found {
				b.Fatalf("lookup: %v %v", found, err)
			}
		}
	})
}

// BenchmarkSuiteInsert measures quorum inserts.
func BenchmarkSuiteInsert(b *testing.B) {
	eachFanOut(b, 0, func(b *testing.B, suite *core.Suite, _ []string) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if err := suite.Insert(ctx, fmt.Sprintf("ins-%012d", i), "v"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSuiteUpdate measures quorum updates of one hot entry.
func BenchmarkSuiteUpdate(b *testing.B) {
	eachFanOut(b, 1, func(b *testing.B, suite *core.Suite, keys []string) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if err := suite.Update(ctx, keys[0], "v2"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSuiteScan measures a full ordered scan of a 200-entry suite
// (one real-successor search per entry).
func BenchmarkSuiteScan(b *testing.B) {
	eachFanOut(b, 200, func(b *testing.B, suite *core.Suite, _ []string) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			entries, err := suite.Scan(ctx, "", 0)
			if err != nil || len(entries) != 200 {
				b.Fatalf("scan: %d entries, %v", len(entries), err)
			}
		}
	})
}

// BenchmarkRouterScan measures a 10-entry scan through a router over four
// in-process 3-2-2 shards of 1,000 entries in all, from a different key
// each time — the scan of the lan-sharded-scan workload, without its
// modelled round trip. With parallel on, a scan returns before its
// release round has been answered, and the next one overlaps it.
func BenchmarkRouterScan(b *testing.B) {
	for _, mode := range fanOutModes {
		b.Run(mode.name, func(b *testing.B) {
			const keys = 1000
			suites := make([]*core.Suite, 4)
			for i := range suites {
				suites[i] = newBenchSuite(b, fmt.Sprintf("s%dr", i), mode.parallel)
			}
			m, err := shard.NewMap("key-00000250", "key-00000500", "key-00000750")
			if err != nil {
				b.Fatal(err)
			}
			r, err := shard.NewRouter(m, suites, shard.WithParallelStitch(mode.parallel))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			starts := make([]string, keys)
			for i := range starts {
				if err := r.Insert(ctx, fmt.Sprintf("key-%08d", i), "value"); err != nil {
					b.Fatal(err)
				}
				starts[i] = fmt.Sprintf("key-%08d", i*37%(keys-10))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if page, err := r.Scan(ctx, starts[i%keys], 10); err != nil || len(page) != 10 {
					b.Fatalf("scan: %d entries, %v", len(page), err)
				}
			}
			b.StopTimer()
			if err := r.Drain(ctx); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAvailabilityEmpirical measures the end-to-end availability
// experiment (random replica crashes + real operations) and reports the
// measured fractions for 3-2-2 at p = 0.9.
func BenchmarkAvailabilityEmpirical(b *testing.B) {
	var res sim.AvailabilityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sim.RunAvailabilityEmpirical(3, 2, 2, 0.9, 1000, 1983+int64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeasuredRead, "read-avail")
	b.ReportMetric(res.MeasuredWrite, "write-avail")
}

// BenchmarkSuiteDelete measures the full DirSuiteDelete path, including
// the real-predecessor/real-successor searches and coalescing; each
// iteration deletes a freshly inserted key from a 1,000-entry directory.
func BenchmarkSuiteDelete(b *testing.B) {
	eachFanOut(b, 1000, func(b *testing.B, suite *core.Suite, _ []string) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			key := fmt.Sprintf("del-%012d", i)
			if err := suite.Insert(ctx, key, "v"); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := suite.Delete(ctx, key); err != nil {
				b.Fatal(err)
			}
		}
	})
}
