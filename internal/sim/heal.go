package sim

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repdir/internal/core"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// healPenalty is the simulated connect-timeout a caller pays for every
// message sent to the down member: an operation whose quorum draws it
// pays once, and its retry routes around the member. healStaleWrites
// and healStaleDeletes are the updates and deletes applied while the
// member is down, i.e. the catch-up work the recovery phase must
// repair; each delete the member misses leaves it holding a ghost.
// healEntries is the directory size seeded before measurement;
// healPageSize and healPace tune the recovery repair.
const (
	healPenalty      = 2 * time.Millisecond
	healStaleWrites  = 150
	healStaleDeletes = 20
	healEntries      = 200
	healPageSize     = 32
	healPace         = 2 * time.Millisecond
)

// HealConfig parameterizes the self-healing experiment.
type HealConfig struct {
	// Ops is the number of lookups per measured phase (default 300).
	Ops int
	// Seed fixes the workload. Zero is a valid, replayable seed (not
	// coerced).
	Seed int64
}

func (c HealConfig) withDefaults() HealConfig {
	if c.Ops <= 0 {
		c.Ops = 300
	}
	return c
}

// RecoveryPoint is one sample of the recovery-time curve: cumulative
// repair progress after each committed repair page.
type RecoveryPoint struct {
	Pages     int
	Scanned   int
	Copied    int
	Freshened int
	Elapsed   time.Duration
}

// HealResult reports the two measured phases plus the recovery curve.
type HealResult struct {
	Config HealConfig

	// BaselineAvg is mean lookup latency with every member healthy.
	BaselineAvg time.Duration
	// DegradedAvg is mean lookup latency with one member down: every
	// lookup whose quorum selects the dead member pays healPenalty
	// before its retry routes around it.
	DegradedAvg time.Duration

	// Recovery is the catch-up curve after the member returns; Repair
	// and RepairTime total it.
	Recovery   []RecoveryPoint
	Repair     core.RepairStats
	RepairTime time.Duration
	// Ghosts counts entries the member still holds after the repair
	// that are not current.
	Ghosts int
}

// RunHeal measures what a down member costs and how it catches up. One
// member of a 3-2-2 suite "fails" such that every message to it costs
// healPenalty before failing — the connect-timeout model of a dead
// host. The experiment measures steady-state lookup latency healthy and
// with the member down, then lets the member return stale and records
// the paced anti-entropy catch-up curve.
func RunHeal(cfg HealConfig) (HealResult, error) {
	cfg = cfg.withDefaults()
	res := HealResult{Config: cfg}
	ctx := context.Background()

	names := []string{"rep0", "rep1", "rep2"}
	var down atomic.Bool // rep2's failure switch
	reps := make([]*rep.Rep, len(names))
	dirs := make([]rep.Directory, len(names))
	for i, n := range names {
		reps[i] = rep.New(n)
		local := transport.NewLocal(reps[i])
		if i == 2 {
			dirs[i] = transport.Wrap(local, func(transport.Op) error {
				if down.Load() {
					time.Sleep(healPenalty)
					return transport.ErrUnavailable
				}
				return nil
			})
		} else {
			dirs[i] = local
		}
	}
	qc := quorum.NewUniform(dirs, 2, 2)

	keys := make([]string, healEntries)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	seedSuite, err := core.NewSuite(qc, core.WithSelector(quorum.NewRandomSelector(qc, cfg.Seed)))
	if err != nil {
		return res, err
	}
	for _, k := range keys {
		if err := seedSuite.Insert(ctx, k, "v1"); err != nil {
			return res, fmt.Errorf("sim: seed %s: %w", k, err)
		}
	}

	measure := func(s *core.Suite, rng *rand.Rand, ops int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < ops; i++ {
			k := keys[rng.Intn(len(keys))]
			if _, found, err := s.Lookup(ctx, k); err != nil {
				return 0, fmt.Errorf("sim: lookup %s: %w", k, err)
			} else if !found {
				return 0, fmt.Errorf("sim: %s vanished", k)
			}
		}
		return time.Since(start) / time.Duration(ops), nil
	}

	// Phase 1: healthy baseline.
	suite, err := core.NewSuite(qc, core.WithSelector(quorum.NewRandomSelector(qc, cfg.Seed+1)))
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	if res.BaselineAvg, err = measure(suite, rng, cfg.Ops); err != nil {
		return res, err
	}

	// Phase 2: rep2 down. Every operation whose quorum draws rep2 pays
	// the timeout before retrying around it.
	down.Store(true)
	if res.DegradedAvg, err = measure(suite, rng, cfg.Ops); err != nil {
		return res, err
	}

	// The member misses writes and deletes while down, so recovery has
	// real work.
	for i := 0; i < healStaleWrites; i++ {
		k := keys[rng.Intn(len(keys))]
		if err := suite.Update(ctx, k, fmt.Sprintf("v2-%d", i)); err != nil {
			return res, fmt.Errorf("sim: stale write %s: %w", k, err)
		}
	}
	for _, k := range keys[:healStaleDeletes] {
		if err := suite.Delete(ctx, k); err != nil {
			return res, fmt.Errorf("sim: stale delete %s: %w", k, err)
		}
	}

	// Phase 3: the member returns; paced anti-entropy catches it up.
	// Each committed repair page is one point on the recovery curve.
	down.Store(false)
	start := time.Now()
	pages := 0
	stats, err := core.RepairReplica(ctx, suite, dirs[2], core.RepairOptions{
		PageSize: healPageSize,
		OnPage: func(cum core.RepairStats) error {
			pages++
			res.Recovery = append(res.Recovery, RecoveryPoint{
				Pages:     pages,
				Scanned:   cum.Scanned,
				Copied:    cum.Copied,
				Freshened: cum.Freshened,
				Elapsed:   time.Since(start),
			})
			time.Sleep(healPace)
			return nil
		},
	})
	if err != nil {
		return res, fmt.Errorf("sim: recovery repair: %w", err)
	}
	res.Repair = stats
	res.RepairTime = time.Since(start)

	current, err := suite.Scan(ctx, "", 0)
	if err != nil {
		return res, fmt.Errorf("sim: scan after repair: %w", err)
	}
	live := make(map[string]bool, len(current))
	for _, kv := range current {
		live[kv.Key] = true
	}
	for _, e := range reps[2].Dump() {
		if !e.Key.IsSentinel() && !live[e.Key.Raw()] {
			res.Ghosts++
		}
	}
	return res, nil
}

// FormatHeal renders the experiment as a text report.
func FormatHeal(r HealResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Self-healing — 3-2-2 suite, %d entries, one member down with a %v per-message timeout\n\n",
		healEntries, healPenalty)
	fmt.Fprintf(&b, "  %-34s %12s\n", "phase (avg lookup latency)", "latency")
	fmt.Fprintf(&b, "  %-34s %12v\n", "healthy baseline", r.BaselineAvg.Round(time.Microsecond))
	fmt.Fprintf(&b, "  %-34s %12v\n", "member down", r.DegradedAvg.Round(time.Microsecond))
	fmt.Fprintf(&b, "\n  recovery after the member returned (%d stale writes and %d deletes to catch up, page size %d, %v pace):\n",
		healStaleWrites, healStaleDeletes, healPageSize, healPace)
	fmt.Fprintf(&b, "  %8s %8s %8s %10s %10s\n", "page", "scanned", "copied", "freshened", "elapsed")
	for _, p := range r.Recovery {
		fmt.Fprintf(&b, "  %8d %8d %8d %10d %10v\n",
			p.Pages, p.Scanned, p.Copied, p.Freshened, p.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "\n  repaired %d entries (%d copied, %d freshened) and %d gap segments across %d entries scanned in %v; %d ghosts left\n",
		r.Repair.Copied+r.Repair.Freshened, r.Repair.Copied, r.Repair.Freshened,
		r.Repair.Gaps, r.Repair.Scanned, r.RepairTime.Round(time.Millisecond), r.Ghosts)
	return b.String()
}
