package repdir

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repdir/internal/core"
	"repdir/internal/model"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/sim"
	"repdir/internal/transport"
	"repdir/internal/txn"
	"repdir/internal/version"
	"repdir/internal/wal"
)

// chaosSeed, when non-zero, replays a single soak seed — the one a
// failing run prints — instead of the default seed sweep:
//
//	go test -run TestChaosSoak -chaos.seed=7 -v
var chaosSeed = flag.Int64("chaos.seed", 0, "replay a single chaos soak seed")

// TestChaosSoak drives a deterministic fault-injection soak per seed:
// thousands of randomized operations against a write-ahead-logged 3-2-2
// suite while internal/fault crashes members (recovering them from
// their logs), partitions them, delays and double-delivers calls, and
// drops replies mid-transaction. Every operation is recorded, with the
// version it read or wrote, in a model.History whose per-key rules the
// run must pass; in-doubt two-phase commits are settled by cooperative
// termination, and a final audit re-reads every touched key. The workload and fault schedule are
// a pure function of the seed, so any failure reproduces from the seed
// this test prints.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	seeds := []int64{1, 2, 3, 4, 5}
	base := sim.ChaosConfig{Operations: 1000}
	if os.Getenv("REPDIR_CHAOS_LONG") != "" {
		seeds = nil
		for s := int64(1); s <= 20; s++ {
			seeds = append(seeds, s)
		}
		base.Operations = 10000
	}
	if *chaosSeed != 0 {
		seeds = []int64{*chaosSeed}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			cfg := base
			cfg.Seed = seed
			res, err := sim.RunChaos(cfg)
			if err != nil {
				t.Fatalf("seed %d: %v\nreplay: go test -run TestChaosSoak -chaos.seed=%d", seed, err, seed)
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			if len(res.Violations) > 0 {
				t.Errorf("replay: go test -run TestChaosSoak -chaos.seed=%d", seed)
			}
			// The soak must actually have exercised the machinery: faults
			// injected, operations applied, keys audited.
			if res.Applied == 0 {
				t.Errorf("seed %d: no operation ever applied", seed)
			}
			if res.AuditedKeys == 0 {
				t.Errorf("seed %d: audit checked no keys", seed)
			}
			total := res.Faults.Crashes + res.Faults.CrashAfters + res.Faults.Partitions +
				res.Faults.Duplicates + res.Faults.DroppedReplies
			if total == 0 {
				t.Errorf("seed %d: fault injector injected nothing", seed)
			}
			// Convergence phase: after the healer finishes, every replica
			// must physically agree on every current entry and hold no
			// ghost. Crash/restart seeds leave real divergence behind, so
			// the healer must also have done actual catch-up work.
			if !res.Converged {
				t.Errorf("seed %d: replicas did not converge after healing", seed)
			}
			if res.Faults.Restarts > 0 && res.Heal.Scanned == 0 {
				t.Errorf("seed %d: healer scanned nothing despite %d restarts", seed, res.Faults.Restarts)
			}
			// The workload must have met the injected outages: some
			// call reached a member inside a crash or partition window.
			if res.Faults.Rejected == 0 {
				t.Errorf("seed %d: no call met a down member despite %d outage windows",
					seed, res.Faults.Crashes+res.Faults.Partitions)
			}
			// The storage-fault phase must have run: a minority of members
			// lost log records mid-run and came back through the
			// rebuild-from-peers path.
			if res.StorageLosses == 0 || res.Rebuilds == 0 {
				t.Errorf("seed %d: storage phase injected %d losses, completed %d rebuilds",
					seed, res.StorageLosses, res.Rebuilds)
			}
			t.Logf("seed %d: applied=%d observed=%d indeterminate=%d lookups=%d audited=%d "+
				"crashes=%d partitions=%d duplicates=%d drops=%d restarts=%d resolved=%d reaped=%d calls=%d "+
				"rejected=%d healed=%d "+
				"storagelost=%d recordslost=%d rebuilds=%d rebuilt=%d gaps=%d timeouts=%d",
				seed, res.Applied, res.Observed, res.Indeterminate, res.Lookups, res.AuditedKeys,
				res.Faults.Crashes+res.Faults.CrashAfters, res.Faults.Partitions,
				res.Faults.Duplicates, res.Faults.DroppedReplies, res.Faults.Restarts,
				res.Resolved, res.Reaped, res.Faults.Calls,
				res.Faults.Rejected, res.Heal.Copied+res.Heal.Freshened,
				res.StorageLosses, res.RecordsLost, res.Rebuilds,
				res.Rebuild.Copied+res.Rebuild.Freshened, res.Rebuild.Gaps, res.Timeouts)
		})
	}
}

// TestChaosSoakSharded drives the soak through a 4-shard router
// instead of a bare suite: per-shard fault injectors and suites behind
// shard.Router, a workload widened with cross-shard transactional
// upserts, cooperative termination running across the union of all
// shards' members (a cross-shard in-doubt transaction needs every
// participant for a safe decision), and periodic sharded Counts checked
// against the history's [min, max] bounds — the torn-cut
// detector for the router's one-transaction stitching.
func TestChaosSoakSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	seeds := []int64{1, 2, 3}
	if *chaosSeed != 0 {
		seeds = []int64{*chaosSeed}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			res, err := sim.RunChaos(sim.ChaosConfig{Seed: seed, Shards: 4, Operations: 800})
			if err != nil {
				t.Fatalf("seed %d: %v\nreplay: go test -run TestChaosSoakSharded -chaos.seed=%d", seed, err, seed)
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			if len(res.Violations) > 0 {
				t.Errorf("replay: go test -run TestChaosSoakSharded -chaos.seed=%d", seed)
			}
			// The sharded machinery must actually have been exercised.
			if res.Applied == 0 {
				t.Errorf("seed %d: no operation ever applied", seed)
			}
			if res.AuditedKeys == 0 {
				t.Errorf("seed %d: audit checked no keys", seed)
			}
			if res.CrossShardTxns == 0 {
				t.Errorf("seed %d: no transaction ever spanned shards", seed)
			}
			if res.Counts == 0 {
				t.Errorf("seed %d: no Count was ever checked against the model", seed)
			}
			total := res.Faults.Crashes + res.Faults.CrashAfters + res.Faults.Partitions +
				res.Faults.Duplicates + res.Faults.DroppedReplies
			if total == 0 {
				t.Errorf("seed %d: fault injectors injected nothing", seed)
			}
			if !res.Converged {
				t.Errorf("seed %d: replicas did not converge after healing", seed)
			}
			if res.StorageLosses == 0 || res.Rebuilds == 0 {
				t.Errorf("seed %d: storage phase injected %d losses, completed %d rebuilds",
					seed, res.StorageLosses, res.Rebuilds)
			}
			t.Logf("seed %d: applied=%d observed=%d indeterminate=%d lookups=%d audited=%d "+
				"counts=%d countfails=%d xshard=%d crashes=%d partitions=%d restarts=%d "+
				"resolved=%d reaped=%d healed=%d rebuilds=%d timeouts=%d",
				seed, res.Applied, res.Observed, res.Indeterminate, res.Lookups, res.AuditedKeys,
				res.Counts, res.CountFailures, res.CrossShardTxns,
				res.Faults.Crashes+res.Faults.CrashAfters, res.Faults.Partitions, res.Faults.Restarts,
				res.Resolved, res.Reaped, res.Heal.Copied+res.Heal.Freshened,
				res.Rebuilds, res.Timeouts)
		})
	}
}

// TestChaosShardedDeterministic replays one sharded seed twice and
// requires identical results, so printed sharded seeds replay too.
func TestChaosShardedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	cfg := sim.ChaosConfig{Seed: 17, Shards: 2, Operations: 400}
	a, err := sim.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Applied != b.Applied || a.Observed != b.Observed ||
		a.Indeterminate != b.Indeterminate || a.Lookups != b.Lookups ||
		a.Counts != b.Counts || a.CountFailures != b.CountFailures ||
		a.CrossShardTxns != b.CrossShardTxns ||
		a.Faults != b.Faults || a.AuditedKeys != b.AuditedKeys ||
		a.Heal != b.Heal ||
		a.Reaped != b.Reaped ||
		a.Converged != b.Converged {
		t.Errorf("same sharded seed, different runs:\n  %+v\n  %+v", a, b)
	}
}

// TestChaosSoakDeterministic replays one seed twice and requires
// identical results — the property that makes printed seeds replayable.
func TestChaosSoakDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	cfg := sim.ChaosConfig{Seed: 11, Operations: 400}
	a, err := sim.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Applied != b.Applied || a.Observed != b.Observed ||
		a.Indeterminate != b.Indeterminate || a.Lookups != b.Lookups ||
		a.Faults != b.Faults || a.AuditedKeys != b.AuditedKeys ||
		a.Heal != b.Heal ||
		a.Reaped != b.Reaped ||
		a.Converged != b.Converged ||
		a.StorageLosses != b.StorageLosses || a.RecordsLost != b.RecordsLost ||
		a.Rebuilds != b.Rebuilds || a.Rebuild != b.Rebuild {
		t.Errorf("same seed, different runs:\n  %+v\n  %+v", a, b)
	}
	// Outcome accounting must balance under fault injection too: every
	// accepted operation commits, fails, or is cancelled — nothing leaks.
	for _, r := range []sim.ChaosResult{a, b} {
		if got := r.Suite.Commits + r.Suite.Failures + r.Suite.Cancelled; got != r.Suite.Calls {
			t.Errorf("accounting: commits %d + failures %d + cancelled %d != calls %d",
				r.Suite.Commits, r.Suite.Failures, r.Suite.Cancelled, r.Suite.Calls)
		}
	}
}

// TestChaosSoakChurn layers membership churn over the soak: at three
// seed-scheduled points the run reconfigures online — adds a full
// member, adds a zero-data witness, then removes the newcomer while
// reweighting a survivor — all through the epoch-fenced two-phase
// protocol, racing the same crash/partition/storage-loss schedule.
// After every switch the harness probes that a client still holding
// the superseded configuration is fenced with rep.ErrStaleEpoch, and
// the final audit runs against the membership actually in force.
func TestChaosSoakChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	seeds := []int64{1, 2, 3}
	if *chaosSeed != 0 {
		seeds = []int64{*chaosSeed}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			res, err := sim.RunChaos(sim.ChaosConfig{Seed: seed, Operations: 800, Churn: true})
			if err != nil {
				t.Fatalf("seed %d: %v\nreplay: go test -run TestChaosSoakChurn -chaos.seed=%d", seed, err, seed)
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			if len(res.Violations) > 0 {
				t.Errorf("replay: go test -run TestChaosSoakChurn -chaos.seed=%d", seed)
			}
			// All three scheduled reconfigurations must have completed,
			// each a two-phase (joint, then stable) transition: epoch 1
			// from Init plus two per step.
			if res.Reconfigs != 3 {
				t.Errorf("seed %d: %d reconfigurations completed, want 3", seed, res.Reconfigs)
			}
			if res.Epochs != 7 {
				t.Errorf("seed %d: final epoch %d, want 7 (init + 3 joint transitions)", seed, res.Epochs)
			}
			if len(res.ChurnEvents) != 3 {
				t.Errorf("seed %d: churn events %v, want 3", seed, res.ChurnEvents)
			}
			// The no-mixing invariant must have been asserted live: every
			// switch fenced the old configuration's client.
			if res.StaleProbes != 3 {
				t.Errorf("seed %d: %d stale-epoch probes fenced, want 3", seed, res.StaleProbes)
			}
			if res.Suite.StaleEpochRejections == 0 {
				t.Errorf("seed %d: no stale-epoch rejection ever counted", seed)
			}
			// The witness must actually have served read-quorum votes
			// after joining (workload plus final audit reads).
			if res.Suite.WitnessVotes == 0 {
				t.Errorf("seed %d: witness never served a read-quorum vote", seed)
			}
			// The usual soak guarantees still hold under churn.
			if res.Applied == 0 {
				t.Errorf("seed %d: no operation ever applied", seed)
			}
			if res.AuditedKeys == 0 {
				t.Errorf("seed %d: audit checked no keys", seed)
			}
			if !res.Converged {
				t.Errorf("seed %d: replicas did not converge after healing", seed)
			}
			total := res.Faults.Crashes + res.Faults.CrashAfters + res.Faults.Partitions +
				res.Faults.Duplicates + res.Faults.DroppedReplies
			if total == 0 {
				t.Errorf("seed %d: fault injector injected nothing", seed)
			}
			t.Logf("seed %d: applied=%d observed=%d indeterminate=%d audited=%d "+
				"reconfigs=%d epoch=%d staleprobes=%d stalerejects=%d witnessvotes=%d "+
				"crashes=%d partitions=%d restarts=%d healed=%d timeouts=%d\nevents: %v",
				seed, res.Applied, res.Observed, res.Indeterminate, res.AuditedKeys,
				res.Reconfigs, res.Epochs, res.StaleProbes,
				res.Suite.StaleEpochRejections, res.Suite.WitnessVotes,
				res.Faults.Crashes+res.Faults.CrashAfters, res.Faults.Partitions,
				res.Faults.Restarts, res.Heal.Copied+res.Heal.Freshened, res.Timeouts,
				res.ChurnEvents)
		})
	}
}

// TestChaosSoakChurnSharded runs the churn schedule on every shard of
// a two-shard router: reconfigurations go through the managers while
// the workload keeps driving the router, whose suites are swapped
// under a lock as epochs advance.
func TestChaosSoakChurnSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	seed := int64(2)
	if *chaosSeed != 0 {
		seed = *chaosSeed
	}
	res, err := sim.RunChaos(sim.ChaosConfig{Seed: seed, Shards: 2, Operations: 800, Churn: true})
	if err != nil {
		t.Fatalf("seed %d: %v\nreplay: go test -run TestChaosSoakChurnSharded -chaos.seed=%d", seed, err, seed)
	}
	for _, v := range res.Violations {
		t.Errorf("seed %d: %s", seed, v)
	}
	if res.Reconfigs != 6 {
		t.Errorf("seed %d: %d reconfigurations completed, want 6 (3 per shard)", seed, res.Reconfigs)
	}
	if res.Epochs != 14 {
		t.Errorf("seed %d: summed final epochs %d, want 14 (7 per shard)", seed, res.Epochs)
	}
	if res.StaleProbes != 6 {
		t.Errorf("seed %d: %d stale-epoch probes fenced, want 6", seed, res.StaleProbes)
	}
	if res.CrossShardTxns == 0 {
		t.Errorf("seed %d: no transaction ever spanned shards", seed)
	}
	if !res.Converged {
		t.Errorf("seed %d: replicas did not converge after healing", seed)
	}
	t.Logf("seed %d: applied=%d audited=%d xshard=%d reconfigs=%d epochs=%d "+
		"staleprobes=%d witnessvotes=%d timeouts=%d\nevents: %v",
		seed, res.Applied, res.AuditedKeys, res.CrossShardTxns, res.Reconfigs,
		res.Epochs, res.StaleProbes, res.Suite.WitnessVotes, res.Timeouts, res.ChurnEvents)
}

// TestChaosChurnDeterministic replays one churn seed twice and
// requires identical results — the reconfiguration schedule, the
// epochs reached, and every fence probe included — so printed churn
// seeds replay like any other soak.
func TestChaosChurnDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	cfg := sim.ChaosConfig{Seed: 9, Operations: 400, Churn: true}
	a, err := sim.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Applied != b.Applied || a.Observed != b.Observed ||
		a.Indeterminate != b.Indeterminate || a.Lookups != b.Lookups ||
		a.Faults != b.Faults || a.AuditedKeys != b.AuditedKeys ||
		a.Heal != b.Heal ||
		a.Reaped != b.Reaped ||
		a.Converged != b.Converged ||
		a.Reconfigs != b.Reconfigs || a.Epochs != b.Epochs ||
		a.StaleProbes != b.StaleProbes {
		t.Errorf("same churn seed, different runs:\n  %+v\n  %+v", a, b)
	}
	if fmt.Sprint(a.ChurnEvents) != fmt.Sprint(b.ChurnEvents) {
		t.Errorf("same churn seed, different schedules:\n  %v\n  %v", a.ChurnEvents, b.ChurnEvents)
	}
}

// incarnationLog is the log one incarnation of a replica writes. A crash
// fences it: a call still running on the crashed incarnation — it
// entered before the crash, and a reap may free the lock it waits for —
// must not append behind the incarnation recovered from the same
// records, as no call of a dead process does.
type incarnationLog struct {
	*wal.MemoryLog
	mu     sync.Mutex
	fenced bool
}

func (l *incarnationLog) Append(r wal.Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fenced {
		return wal.ErrClosed
	}
	return l.MemoryLog.Append(r)
}

func (l *incarnationLog) fence() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fenced = true
}

// TestChaosConcurrentClients keeps the live-coordinator coverage the
// deterministic soak cannot provide: eight clients, coordinated by two
// suites, race each other on one shared set of eight keys while a chaos
// goroutine crashes replicas out from under them and recovers them from
// their logs. Operations may
// fail when quorums are unreachable — failures are fine, wrong answers
// are not. Every operation goes into one model.History with the version
// it read or wrote, and each key's history must pass its four rules:
// they need no single client, only the versions. It runs on 3-2-2, where
// the suite writes on versions it remembers, and on 4-3-2, where two
// write quorums can miss each other and no write may.
func TestChaosConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	for _, tc := range []struct{ members, r, w int }{{3, 2, 2}, {4, 3, 2}} {
		t.Run(fmt.Sprintf("%d-%d-%d", tc.members, tc.r, tc.w), func(t *testing.T) {
			ctx := context.Background()
			names := []string{"A", "B", "C", "D"}[:tc.members]

			// WAL-backed replicas so crashes are recoverable. Each
			// incarnation writes its log through a handle its crash fences.
			logs := make([]*wal.MemoryLog, len(names))
			handles := make([]*incarnationLog, len(names))
			locals := make([]*transport.Local, len(names))
			dirs := make([]rep.Directory, len(names))
			var repMu sync.Mutex // guards replica swap during crash/recover
			reps := make([]*rep.Rep, len(names))
			for i, n := range names {
				logs[i] = &wal.MemoryLog{}
				handles[i] = &incarnationLog{MemoryLog: logs[i]}
				reps[i] = rep.New(n, rep.WithLog(handles[i]))
				locals[i] = transport.NewLocal(reps[i])
				dirs[i] = locals[i]
			}
			cfg := quorum.NewUniform(dirs, tc.r, tc.w)
			// Two suites coordinate, each for half of the clients, so a
			// version one remembers goes stale whenever the other writes.
			suites := make([]*core.Suite, 2)
			for i := range suites {
				s, err := core.NewSuite(cfg, core.WithIDSource(txn.NewIDSource(uint16(i))),
					core.WithSelector(quorum.NewRandomSelector(cfg, int64(i+1))), core.WithMaxRetries(48))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				suites[i] = s
			}
			suite := suites[0]

			hist := model.NewHistory()
			stop := make(chan struct{})
			var wg sync.WaitGroup

			// Chaos: crash one replica (drop its volatile state), let the suite
			// run degraded, recover it from its log, sometimes repair it.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(13))
				for round := 0; ; round++ {
					select {
					case <-stop:
						return
					case <-time.After(15 * time.Millisecond):
					}
					i := rng.Intn(len(names))
					locals[i].Crash()
					handles[i].fence()
					time.Sleep(20 * time.Millisecond)
					// Recover from the WAL: in-flight state is gone, committed
					// state returns; any in-doubt transactions keep their keys
					// locked until a resolver finishes them.
					handles[i] = &incarnationLog{MemoryLog: logs[i]}
					recovered, err := rep.Recover(names[i], logs[i].Records(), rep.WithLog(handles[i]))
					if err != nil {
						t.Errorf("chaos recover %s: %v", names[i], err)
						return
					}
					repMu.Lock()
					reps[i] = recovered
					repMu.Unlock()
					locals[i].Replace(recovered)
					locals[i].Restart()
					// In-doubt transactions stay blocked until the post-run
					// resolution sweep — resolving here could race a live
					// coordinator. Sometimes run a repair pass.
					if round%3 == 0 {
						// Bounded: repair may block behind in-doubt locks.
						rctx, cancel := context.WithTimeout(ctx, 400*time.Millisecond)
						_, _ = core.RepairReplica(rctx, suite, locals[i], core.RepairOptions{})
						cancel()
					}
				}
			}()

			// Clients. tally counts the outcomes: acknowledged writes and
			// deletes, ambiguous ones, and reads.
			const clients, keys = 8, 8
			var tally [3]atomic.Int64
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + c)))
					suite := suites[c%len(suites)]
					deadline := time.Now().Add(1500 * time.Millisecond)
					for i := 0; time.Now().Before(deadline); i++ {
						key := fmt.Sprintf("k%d", rng.Intn(keys))
						val := fmt.Sprintf("v%d-%d", c, i)
						// Bound every operation: an in-doubt transaction from a
						// crash may hold locks that an older transaction would
						// otherwise wait on forever.
						ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
						var o *model.Op
						var ver version.V
						var err error
						switch rng.Intn(4) {
						case 0:
							o = hist.Invoke(model.Write, key, val)
							ver, err = suite.InsertV(ctx, key, val)
						case 1:
							o = hist.Invoke(model.Write, key, val)
							ver, err = suite.UpdateV(ctx, key, val)
						case 2:
							o = hist.Invoke(model.Delete, key, "")
							ver, err = suite.DeleteV(ctx, key)
						default:
							o = hist.Invoke(model.Read, key, "")
							got, found, rver, lerr := suite.LookupV(ctx, key)
							if lerr == nil {
								hist.Read(o, got, found, rver)
							} else {
								hist.Return(o, model.Fail, 0)
							}
						}
						cancel()
						switch {
						case o.Kind == model.Read:
							tally[2].Add(1)
						case err == nil:
							hist.Return(o, model.Ok, ver)
							tally[0].Add(1)
						default:
							// Even a refusal: an earlier attempt of the same
							// operation may have taken effect before a crash
							// lost its reply.
							hist.Return(o, model.Indeterminate, 0)
							tally[1].Add(1)
						}
					}
				}(c)
			}

			// Wait for clients, stop chaos.
			done := make(chan struct{})
			go func() {
				wg.Wait()
				close(done)
			}()
			time.Sleep(1600 * time.Millisecond)
			close(stop)
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("chaos test wedged")
			}

			// Heal everything, finish anything left in doubt (all coordinators
			// are done now, so resolution is safe), then read every key three
			// times into the history and check it.
			for _, l := range locals {
				l.Restart()
			}
			repMu.Lock()
			current := append([]*rep.Rep(nil), reps...)
			repMu.Unlock()
			for _, r := range current {
				for _, id := range r.InDoubt() {
					if _, err := txn.Resolve(ctx, id, dirs); err != nil &&
						!errors.Is(err, txn.ErrUnresolvable) {
						t.Errorf("post-run resolve %d: %v", id, err)
					}
				}
			}
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("k%d", k)
				for pass := 0; pass < 3; pass++ {
					o := hist.Invoke(model.Read, key, "")
					got, found, ver, err := suite.LookupV(ctx, key)
					if err != nil {
						t.Fatalf("final audit %s: %v", key, err)
					}
					hist.Read(o, got, found, ver)
				}
			}
			for _, v := range hist.Check() {
				t.Error(v)
			}
			t.Logf("%d writes and deletes acknowledged, %d failed, %d reads", tally[0].Load(), tally[1].Load(), tally[2].Load())
			if tally[0].Load() == 0 || tally[2].Load() == 0 {
				t.Error("no write was acknowledged or nothing was read: the test proves nothing")
			}
		})
	}
}
