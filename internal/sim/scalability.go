package sim

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repdir/internal/core"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// ScalabilityPoint is one row of the concurrency-scaling experiment.
type ScalabilityPoint struct {
	Clients    int
	Operations int
	Elapsed    time.Duration
	// Throughput is successful operations per second.
	Throughput float64
	// WaitDieAborts counts wait-die events observed by the suite.
	WaitDieAborts uint64
}

// RunScalability quantifies "the additional concurrency permitted by
// this directory replication algorithm" (the measurement section 5 calls
// for): total update throughput of one 3-2-2 suite as concurrent clients
// grow, each client updating its own key range. Every replica charges a
// fixed per-message latency, so throughput growth reflects genuine
// operation overlap across disjoint ranges rather than CPU parallelism.
//
// A client updates its keysPerClient keys in turn: one that rewrote a
// single key back to back would meet its own last update's locks, held
// until that update's commit round lands after the update has returned,
// which is not the concurrency measured here. An update of a key the
// suite knows the version of returns after one round, and under the race
// detector a commit round can lag several of them, so the turn is
// sixteen keys long.
func RunScalability(clientCounts []int, opsPerClient int, perMessage time.Duration) ([]ScalabilityPoint, error) {
	const keysPerClient = 16
	key := func(c, i int) string { return fmt.Sprintf("key-%03d-%d", c, i%keysPerClient) }
	ctx := context.Background()
	var out []ScalabilityPoint
	for _, clients := range clientCounts {
		dirs := make([]rep.Directory, 3)
		for i := range dirs {
			l := transport.NewLocal(rep.New(fmt.Sprintf("rep%d", i)))
			l.SetLatency(perMessage)
			dirs[i] = l
		}
		cfg := quorum.NewUniform(dirs, 2, 2)
		suite, err := core.NewSuite(cfg, core.WithParallelQuorum(true))
		if err != nil {
			return nil, err
		}
		for c := 0; c < clients; c++ {
			for i := 0; i < keysPerClient; i++ {
				if err := suite.Insert(ctx, key(c, i), "0"); err != nil {
					return nil, err
				}
			}
		}
		if err := suite.Drain(ctx); err != nil {
			return nil, err
		}

		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < opsPerClient; i++ {
					if err := suite.Update(ctx, key(c, i), fmt.Sprintf("%d", i)); err != nil {
						errCh <- fmt.Errorf("client %d: %w", c, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errCh)
		if err := <-errCh; err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		suite.Close()
		total := clients * opsPerClient
		out = append(out, ScalabilityPoint{
			Clients:       clients,
			Operations:    total,
			Elapsed:       elapsed,
			Throughput:    float64(total) / elapsed.Seconds(),
			WaitDieAborts: suite.Stats().Dies,
		})
	}
	return out, nil
}

// FormatScalability renders the scaling table.
func FormatScalability(points []ScalabilityPoint, perMessage time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b,
		"Concurrency scaling — disjoint-range updates on one 3-2-2 suite (%v per message)\n",
		perMessage)
	fmt.Fprintf(&b, "%10s%12s%12s%16s%14s\n", "clients", "ops", "elapsed", "ops/sec", "wait-die")
	for _, p := range points {
		fmt.Fprintf(&b, "%10d%12d%12s%16.0f%14d\n",
			p.Clients, p.Operations, p.Elapsed.Round(time.Millisecond),
			p.Throughput, p.WaitDieAborts)
	}
	return b.String()
}
