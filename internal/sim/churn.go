package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repdir/internal/core"
	"repdir/internal/reconfig"
	"repdir/internal/rep"
)

// Membership churn: when ChaosConfig.Churn is set, the soak interleaves
// online reconfigurations with the workload, racing epoch-fenced
// membership changes against the same partitions, crashes, and storage
// losses the rest of the run injects. The schedule — which ops the
// changes land on — is a deterministic function of the seed, so a churn
// run replays exactly like any other soak.

// Churn step kinds, executed in order on every shard.
const (
	// churnAddMember adds one full (value-carrying) voting member,
	// seeded online before it gets votes, and rebalances R/W.
	churnAddMember = "add-member"
	// churnAddWitness adds one zero-data witness replica with a vote.
	churnAddWitness = "add-witness"
	// churnRemoveReweight removes the churnAddMember newcomer and
	// doubles the first original member's votes in the same transition.
	churnRemoveReweight = "remove-reweight"
)

// churnStep is one scheduled reconfiguration, applied to every shard
// when the workload reaches AtOp.
type churnStep struct {
	AtOp int
	Kind string
}

// churnPlan is the seed-derived schedule.
type churnPlan struct {
	steps []churnStep
	next  int
}

// churnMinOps is the smallest workload a churn schedule fits into with
// its three windows (before, between, and after the storage phase).
const churnMinOps = 32

// churnSuspendAfter is how many reconfiguration attempts run fully
// under the fault schedule before the operator holds the chaos for a
// maintenance window to let the transition's catch-up passes finish.
const churnSuspendAfter = 8

// newChurnPlan derives the schedule from the seed. The three steps land
// in disjoint windows: the add before the midpoint storage phase, the
// witness and the removal after it, so every combination of
// reconfiguration state and storage loss gets exercised.
func newChurnPlan(cfg ChaosConfig) (*churnPlan, error) {
	n := cfg.Operations
	if n < churnMinOps {
		return nil, fmt.Errorf("sim: chaos %s: churn needs at least %d operations, have %d",
			cfg.Name(), churnMinOps, n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed*31 + 104651))
	jitter := func(width int) int {
		if width < 1 {
			return 0
		}
		return rng.Intn(width)
	}
	return &churnPlan{steps: []churnStep{
		{AtOp: n/4 + jitter(n/8), Kind: churnAddMember},
		{AtOp: n*5/8 + jitter(n/16), Kind: churnAddWitness},
		{AtOp: n*13/16 + jitter(n/16), Kind: churnRemoveReweight},
	}}, nil
}

// churnMemberName names the k-th churn newcomer of a shard, following
// the harness's member naming so logs and audits read uniformly.
func churnMemberName(cfg ChaosConfig, shard, k int) string {
	if cfg.Shards == 1 {
		return fmt.Sprintf("rep%d", chaosReplicas+k)
	}
	return fmt.Sprintf("s%dr%d", shard, chaosReplicas+k)
}

// balancedQuorums picks R and W for a vote total: a majority write
// quorum and the matching read quorum, the tightest pair satisfying
// R + W = total + 1.
func balancedQuorums(total int) (r, w int) {
	w = total/2 + 1
	return total + 1 - w, w
}

// churnChange renders one step as a reconfig.Change for one shard,
// creating the newcomer fault member on first use (so its fault stream
// index — and therefore the replay — is fixed by the schedule order).
func (h *chaosHarness) churnChange(cfg ChaosConfig, shard int, step churnStep) (reconfig.Change, error) {
	rec := h.managers[shard].Record()
	votes := 0
	for _, m := range rec.Current.Members {
		votes += m.Votes
	}
	switch step.Kind {
	case churnAddMember, churnAddWitness:
		name := churnMemberName(cfg, shard, 0)
		var opts []rep.Option
		if step.Kind == churnAddWitness {
			name = churnMemberName(cfg, shard, 1)
			opts = append(opts, rep.AsWitness())
		}
		dir := h.injectors[shard].Add(name, opts...)
		h.allDirs = append(h.allDirs, dir)
		r, w := balancedQuorums(votes + 1)
		return reconfig.Change{
			Add: []reconfig.Addition{{Dir: dir, Votes: 1, Witness: step.Kind == churnAddWitness}},
			R:   r, W: w,
		}, nil
	case churnRemoveReweight:
		victim := churnMemberName(cfg, shard, 0)
		first := rec.Current.Members[0]
		removedVotes := 0
		for _, m := range rec.Current.Members {
			if m.Name == victim {
				removedVotes = m.Votes
			}
		}
		r, w := balancedQuorums(votes - removedVotes - first.Votes + 2)
		return reconfig.Change{
			Remove:   []string{victim},
			Reweight: map[string]int{first.Name: 2},
			R:        r, W: w,
		}, nil
	}
	return reconfig.Change{}, fmt.Errorf("sim: unknown churn step %q", step.Kind)
}

// churnApplied reports whether a record already reflects the step —
// the idempotence check that lets the operator retry loop resume a
// transition another attempt (or a crash inside Reconfigure) left
// half-done, without re-applying the change to the new configuration.
func churnApplied(cfg ChaosConfig, shard int, step churnStep, rec reconfig.Record) bool {
	if rec.Phase != reconfig.PhaseStable {
		return false
	}
	has := func(name string) bool {
		for _, m := range rec.Current.Members {
			if m.Name == name {
				return true
			}
		}
		return false
	}
	switch step.Kind {
	case churnAddMember:
		return has(churnMemberName(cfg, shard, 0))
	case churnAddWitness:
		return has(churnMemberName(cfg, shard, 1))
	case churnRemoveReweight:
		return !has(churnMemberName(cfg, shard, 0))
	}
	return false
}

// churnPhase applies one scheduled step to every shard with
// operator-style retries: each attempt first settles the topology
// (chaosHarness.settle), resumes any pending transition, and only then
// drives the change. After the switch it probes that a client still holding the
// old configuration fails loudly with rep.ErrStaleEpoch — the
// "clients must not mix configurations" invariant, asserted live under
// the fault schedule.
func churnPhase(h *chaosHarness, cfg ChaosConfig, op int, step churnStep, res *ChaosResult) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	suspended := false
	defer func() {
		if suspended {
			for _, in := range h.injectors {
				in.Suspend(false)
			}
		}
	}()
	for shard := range h.managers {
		m := h.managers[shard]
		oldSuite := h.suites[shard]
		change, err := h.churnChange(cfg, shard, step)
		if err != nil {
			return err
		}
		var rec reconfig.Record
		for attempt := 0; ; attempt++ {
			if attempt >= 50 {
				return fmt.Errorf("churn %s shard %d would not complete: %w", step.Kind, shard, err)
			}
			// The first attempts run under fire — the fault schedule races
			// the joint commit, the fence, and the catch-up passes, and
			// every failure exercises the crash-resume path. A
			// reconfiguration's catch-up reconciles every member, though
			// (thousands of calls), and under a per-call fault rate those
			// attempts may never all land; past a few failures the
			// operator does what a real one would — holds the chaos for a
			// maintenance window — and the schedule resumes afterwards,
			// exactly where it paused.
			if attempt == churnSuspendAfter {
				suspended = true
				for _, in := range h.injectors {
					in.Suspend(true)
				}
			}
			// Settle every shard, as the storage phase does, so quorums
			// and fences can assemble and reconfiguration's own
			// transactions are not blocked behind leaked locks. Fresh
			// windows the plan opens mid-attempt fail the attempt; the
			// next one settles again.
			if _, serr := h.settle(ctx); serr != nil {
				return fmt.Errorf("churn: %w", serr)
			}
			// Resume first: a prior attempt may have committed the joint
			// record and died, in which case the change is already in
			// flight and must be completed, not re-applied.
			rec, err = m.CompleteTransition(ctx)
			if err == nil && churnApplied(cfg, shard, step, rec) {
				break
			}
			if err == nil {
				rec, err = m.Reconfigure(ctx, change)
				if err == nil {
					break
				}
			}
			if errors.Is(err, reconfig.ErrConflict) {
				// The only other operator here is an earlier incarnation of
				// this loop: a prior attempt's record write committed after
				// its reply was lost. The next attempt's refresh adopts it
				// and the idempotence check above recognizes the step.
				continue
			}
			if !reconfig.IsRetryable(err) {
				return fmt.Errorf("churn %s shard %d: %w", step.Kind, shard, err)
			}
		}
		if suspended {
			// Maintenance window over: the schedule picks up where it
			// paused, so the fence probe below and the rest of the
			// workload run under fire again.
			suspended = false
			for _, in := range h.injectors {
				in.Suspend(false)
			}
		}
		if h.wireErr != nil {
			return h.wireErr
		}
		res.Reconfigs++
		res.ChurnEvents = append(res.ChurnEvents,
			fmt.Sprintf("op %d shard %d %s -> epoch %d", op, shard, step.Kind, rec.Epoch))

		// The enforced no-mixing invariant: the pre-churn suite still
		// held by a stale client must be fenced out, not silently served.
		// A probe can also die of an ordinary injected fault
		// (unavailable member), which asserts nothing; heal and retry
		// until the fence itself answers.
		probed := false
		for try := 0; try < 10 && !probed; try++ {
			for _, in := range h.injectors {
				if herr := in.Heal(); herr != nil {
					return fmt.Errorf("churn probe: %w", herr)
				}
			}
			_, _, perr := oldSuite.Lookup(ctx, "k0000")
			switch {
			case errors.Is(perr, rep.ErrStaleEpoch):
				res.StaleProbes++
				probed = true
			case perr == nil:
				res.Violations = append(res.Violations, fmt.Sprintf(
					"op %d shard %d: old-epoch suite served a lookup after %s (epoch %d)",
					op, shard, step.Kind, rec.Epoch))
				probed = true
			}
		}
		if !probed {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"op %d shard %d: old-epoch suite never fenced after %s (epoch %d)",
				op, shard, step.Kind, rec.Epoch))
		}
	}
	return nil
}

// rewireShard is the manager's OnChange hook for one shard: point the
// harness — suite slot, router — at the freshly installed
// configuration, so the workload and the later convergence phase drive
// the epoch in force rather than a superseded one.
func (h *chaosHarness) rewireShard(shard int, s *core.Suite) {
	if shard >= len(h.suites) {
		return // manager bootstrap; the harness wires slots right after Init
	}
	h.suites[shard] = s
	if h.router != nil {
		if _, err := h.router.SetSuite(shard, s); err != nil && h.wireErr == nil {
			h.wireErr = fmt.Errorf("sim: churn rewire shard %d: %w", shard, err)
		}
	}
}
