package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repdir/internal/btree"
	"repdir/internal/core"
	"repdir/internal/fault"
	"repdir/internal/lock"
	"repdir/internal/model"
	"repdir/internal/quorum"
	"repdir/internal/reconfig"
	"repdir/internal/rep"
	"repdir/internal/shard"
	"repdir/internal/transport"
	"repdir/internal/txn"
	"repdir/internal/version"
)

// ChaosConfig parameterizes one chaos soak: a live suite driven through
// randomized operations while the fault injector crashes, partitions,
// delays, and double-delivers underneath it, with every operation
// recorded in a model.History and each key's history checked against a
// single copy by its versions. The whole run — workload and fault
// schedule — is a deterministic function of Seed.
type ChaosConfig struct {
	// Shards is the number of keyspace shards (default 1). With one
	// shard the workload drives a bare core.Suite, exactly as earlier
	// harness versions did. With more, one suite per shard sits behind a
	// shard.Router whose split points divide the key universe evenly,
	// every shard gets its own fault injector, and the workload gains
	// cross-shard transactional upserts plus periodic Count-vs-history
	// assertions that would catch a router stitching a torn cut.
	Shards int
	// Operations is the number of workload operations (default 1000).
	Operations int
	// Seed drives the workload and the fault schedule, which draws from
	// fault.DefaultPlan() and always includes the midpoint storage-fault
	// phase.
	Seed int64
	// Churn enables the membership-churn phase: each shard's
	// configuration becomes an epoch-fenced replicated record managed by
	// reconfig.Manager, and a seed-derived schedule adds a member, adds a
	// witness, and removes-with-reweight mid-run, racing the
	// reconfigurations against the fault schedule. Requires
	// Operations >= 32.
	Churn bool
}

// The soak's fixed shape. Each shard is a 3-2-2 suite (chaosReplicas,
// chaosR, chaosW) with parallel quorum fan-out, parallel two-phase
// commit rounds and, when sharded, parallel stitching, so races are
// exercised under -race. The key universe is chaosKeys keys: a small
// universe maximizes collisions, ghosts, and lock conflicts.
// chaosOpTimeout bounds each operation; in-doubt transactions can hold
// locks until the between-ops resolution pass, and wait-die kills
// conflicting younger transactions quickly, so it is a backstop rather
// than a pacing device. chaosMaxRetries is each suite's and router's
// per-operation retry budget.
const (
	chaosReplicas   = 3
	chaosR, chaosW  = 2, 2
	chaosKeys       = 48
	chaosOpTimeout  = 5 * time.Second
	chaosMaxRetries = 32
)

// withDefaults fills in the zero-value defaults.
func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Operations == 0 {
		c.Operations = 1000
	}
	return c
}

// Name labels the run: "chaos-<seed>", with a "-<shards>s" suffix when
// sharded and "-churn" under churn.
func (c ChaosConfig) Name() string {
	name := fmt.Sprintf("chaos-%d", c.Seed)
	if c.Shards > 1 {
		name += fmt.Sprintf("-%ds", c.Shards)
	}
	if c.Churn {
		name += "-churn"
	}
	return name
}

// ChaosResult reports one soak.
type ChaosResult struct {
	Config ChaosConfig
	// Applied counts mutations that reported success; Observed counts
	// refusals (ErrKeyExists / ErrKeyNotFound, see model.History.Refused);
	// Indeterminate counts ambiguous mutation failures; Lookups counts
	// successful lookups.
	Applied, Observed, Indeterminate, Lookups int
	// FailedLookups counts lookups that returned an error (no check
	// possible).
	FailedLookups int
	// Timeouts counts workload operations that waited out
	// chaosOpTimeout and ended with context.DeadlineExceeded. It is
	// wall-clock bound (a loaded machine can add one), so it stays out
	// of the determinism comparisons.
	Timeouts int
	// Counts is the number of Count observations checked against the
	// history's [min, max] bounds — periodic mid-run checks plus
	// the exact post-audit check. CountFailures counts mid-run Count
	// calls that failed under active fault windows (tolerated: a failed
	// count asserts nothing).
	Counts, CountFailures int
	// CrossShardTxns is the router's tally of transactions that touched
	// two or more shards; zero when Shards <= 1.
	CrossShardTxns uint64
	// Resolved counts in-doubt participants driven to a decision by the
	// between-ops and post-run resolution passes.
	Resolved int
	// Reaped sums rep.Counters.Reaped over the members' last
	// incarnations: strays aborted at their deadlines.
	Reaped uint64
	// Fault totals over all members of all shards. They count at the
	// member, so Faults.Calls includes the harness's own resolve calls.
	Faults fault.Stats
	// Suite-level transaction counters, summed over every suite any
	// shard ran, those an epoch change retired and a manager's transient
	// ones included: stale-epoch fences and witness votes among them.
	Suite core.SuiteStats
	// AuditedKeys is how many keys the final audit checked.
	AuditedKeys int
	// Heal is the total work of the post-run convergence phase.
	Heal core.RepairStats
	// StorageLosses counts members whose logs the storage-fault phase
	// damaged; RecordsLost totals the log records destroyed; Rebuilds
	// counts completed rebuild-from-peers passes.
	StorageLosses, RecordsLost, Rebuilds int
	// Rebuild is the total work of those rebuild passes.
	Rebuild core.RepairStats
	// Reconfigs counts completed configuration changes across shards;
	// Epochs sums the final configuration epoch over shards; StaleProbes
	// counts old-epoch clients observed to fail loudly with
	// rep.ErrStaleEpoch after a reconfiguration; ChurnEvents describes
	// the seed-derived schedule and each event's outcome. All zero/empty
	// unless Churn is enabled.
	Reconfigs   int
	Epochs      uint64
	StaleProbes int
	ChurnEvents []string
	// Converged reports that after the convergence passes finished,
	// every replica physically held every current entry at an identical
	// (version, value), and nothing else.
	Converged bool
	// Violations are single-copy-semantics contradictions; a correct
	// implementation produces none.
	Violations []string
}

// chaosDirectory is the client surface the workload drives, each point
// operation with the version it read or wrote: a bare *core.Suite when
// Shards == 1 (its reconfig.Manager under churn), a *shard.Router else.
type chaosDirectory interface {
	LookupV(ctx context.Context, key string) (string, bool, version.V, error)
	InsertV(ctx context.Context, key, value string) (version.V, error)
	UpdateV(ctx context.Context, key, value string) (version.V, error)
	DeleteV(ctx context.Context, key string) (version.V, error)
	Count(ctx context.Context) (int, error)
}

// chaosHarness is the built topology of one soak: per-shard fault
// injectors and suites, plus the router (nil when unsharded) and the
// directory facade the workload drives.
type chaosHarness struct {
	clock     chaosClock
	injectors []*fault.Injector
	suites    []*core.Suite
	allDirs   []rep.Directory // every member of every shard
	router    *shard.Router
	dir       chaosDirectory
	// Churn machinery (nil/empty unless ChaosConfig.Churn): one
	// reconfig.Manager per shard owning that shard's configuration
	// record, the seed-derived schedule, and the first rewiring error
	// (the OnChange hook cannot return one).
	managers []*reconfig.Manager
	churn    *churnPlan
	wireErr  error
	// built holds every suite the harness or a manager built, those an
	// epoch change replaced and a manager's transient ones included: the
	// accounting covers their operations. Suites are built on the one
	// goroutine that drives the workload and the churn schedule.
	built []*core.Suite
}

// buildChaosHarness constructs the per-shard machinery. With one shard
// the member names, seeds, and ID-source node are exactly what earlier
// single-suite harness versions used, so old replay seeds stay valid.
func buildChaosHarness(cfg ChaosConfig) (*chaosHarness, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("sim: chaos %s: invalid shard count %d", cfg.Name(), cfg.Shards)
	}
	if cfg.Shards > 1 && chaosKeys < cfg.Shards {
		return nil, fmt.Errorf("sim: chaos %s: %d shards need at least %d keys, have %d",
			cfg.Name(), cfg.Shards, cfg.Shards, chaosKeys)
	}
	h := &chaosHarness{}
	if cfg.Churn {
		plan, err := newChurnPlan(cfg)
		if err != nil {
			return nil, err
		}
		h.churn = plan
	}
	for i := 0; i < cfg.Shards; i++ {
		names := make([]string, chaosReplicas)
		for j := range names {
			if cfg.Shards == 1 {
				names[j] = fmt.Sprintf("rep%d", j)
			} else {
				names[j] = fmt.Sprintf("s%dr%d", i, j)
			}
		}
		// Distinct per-shard fault streams; shard 0 keeps the historical
		// seed so unsharded runs replay identically.
		injector := fault.NewInjector(names, fault.DefaultPlan(), cfg.Seed+int64(i)*104729, rep.WithClock(&h.clock))
		h.injectors = append(h.injectors, injector)

		dirs := injector.Directories()
		h.allDirs = append(h.allDirs, dirs...)

		qcfg := quorum.NewUniform(dirs, chaosR, chaosW)
		ids := txn.NewIDSource(uint16(i))
		selSeed := cfg.Seed + 1 + int64(i)
		suiteOpts := func(qc quorum.Config) []core.Option {
			return []core.Option{
				core.WithIDSource(ids),
				core.WithSelector(quorum.NewRandomSelector(qc, selSeed)),
				core.WithMaxRetries(chaosMaxRetries),
				core.WithParallelQuorum(true),
				func(s *core.Suite) { h.built = append(h.built, s) },
			}
		}
		var suite *core.Suite
		if h.churn == nil {
			var err error
			suite, err = core.NewSuite(qcfg, suiteOpts(qcfg)...)
			if err != nil {
				return nil, err
			}
		} else {
			// Configuration-as-a-replicated-entry: the manager owns the
			// record and rebuilds the suite on every epoch; the OnChange
			// hook repoints the harness. The same suite options apply to
			// every epoch's suite (for joint configurations the manager
			// appends its own two-sided selector after them).
			shardIdx := i
			manager, err := reconfig.NewManager(qcfg,
				reconfig.WithSuiteOptions(suiteOpts),
				reconfig.WithSelectorSeed(selSeed),
				reconfig.WithOnChange(func(_ reconfig.Record, s *core.Suite) {
					h.rewireShard(shardIdx, s)
				}),
			)
			if err != nil {
				return nil, err
			}
			// Init writes the epoch-1 record and fences the members to
			// it; the fault schedule is already live underneath, so ride
			// out windows the first calls may open.
			ictx, icancel := context.WithTimeout(context.Background(), 30*time.Second)
			for attempt := 0; ; attempt++ {
				_, err = manager.Init(ictx)
				if err == nil {
					break
				}
				if attempt >= 20 || ictx.Err() != nil {
					icancel()
					return nil, fmt.Errorf("sim: chaos %s: init shard %d: %w", cfg.Name(), i, err)
				}
				if herr := injector.Heal(); herr != nil {
					icancel()
					return nil, herr
				}
			}
			icancel()
			h.managers = append(h.managers, manager)
			suite = manager.Suite()
		}
		h.suites = append(h.suites, suite)
	}

	if cfg.Shards == 1 {
		if h.churn != nil {
			// The manager's delegated operations transparently refresh
			// across configuration changes; bare-suite clients would go
			// stale at the first epoch transition.
			h.dir = h.managers[0]
		} else {
			h.dir = h.suites[0]
		}
		return h, nil
	}
	// Split the key universe evenly: shard i owns keys with index in
	// [i*Keys/Shards, (i+1)*Keys/Shards).
	splits := make([]string, cfg.Shards-1)
	for i := range splits {
		splits[i] = fmt.Sprintf("k%04d", (i+1)*chaosKeys/cfg.Shards)
	}
	m, err := shard.NewMap(splits...)
	if err != nil {
		return nil, err
	}
	// Node tag 1023 keeps router transactions' wait-die ages distinct
	// from every suite's (suites use their shard index).
	h.router, err = shard.NewRouter(m, h.suites,
		shard.WithIDSource(txn.NewIDSource(1023)),
		shard.WithMaxRetries(chaosMaxRetries),
		shard.WithParallelStitch(true),
	)
	if err != nil {
		return nil, err
	}
	h.dir = h.router
	return h, nil
}

// allInDoubt returns the union of every shard's in-doubt transactions,
// sorted for deterministic resolution order.
func (h *chaosHarness) allInDoubt() []lock.TxnID {
	seen := make(map[lock.TxnID]bool)
	var out []lock.TxnID
	for _, in := range h.injectors {
		for _, m := range in.Members() {
			for _, id := range m.InDoubt() {
				if !seen[id] {
					seen[id] = true
					out = append(out, id)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// resolve runs cooperative termination (txn.Resolve) for every in-doubt
// transaction, across every shard at once. A cross-shard transaction's
// participants live under different injectors, and a safe decision
// needs all of them: resolving with one shard's members alone could
// abort that shard's prepared participant while another shard's had
// already committed. It must only run while no coordinator is live, so
// it first lets the members reap their strays (chaosClock). Transactions
// that cannot be decided yet (some participant is down and none
// committed) are left for a later pass. It returns how many participants
// it drove to a decision.
func (h *chaosHarness) resolve(ctx context.Context) (finished int, err error) {
	h.clock.leap()
	for _, id := range h.allInDoubt() {
		res, rerr := txn.Resolve(ctx, id, h.allDirs)
		finished += len(res.Finished)
		if rerr == nil {
			continue
		}
		if errors.Is(rerr, txn.ErrUnresolvable) || errors.Is(rerr, transport.ErrUnavailable) {
			continue // some participant is down; retry on a later pass
		}
		if err == nil {
			err = fmt.Errorf("sim: resolve txn %d: %w", id, rerr)
		}
	}
	return finished, err
}

// settle is the operator's checkpoint between workload operations: end
// every open fault window in every shard (restarting crashed members
// from their logs) and resolve, so that what runs next can assemble
// quorums and is not blocked behind leaked locks. The periodic count,
// the storage phase and the churn phase run it. The fault schedule
// counts calls, so these calls' order is part of every seed's replay. It
// returns the participants resolved.
func (h *chaosHarness) settle(ctx context.Context) (int, error) {
	for _, in := range h.injectors {
		if err := in.Heal(); err != nil {
			return 0, err
		}
	}
	return h.resolve(ctx)
}

// chaosClock is the members' one clock (rep.WithClock). It stands still
// while an operation runs; resolve's leap moves it past every deadline
// and runs the reapers on its own goroutine, so reaps replay exactly.
type chaosClock struct {
	mu     sync.Mutex
	now    time.Time
	reaper []func()
}

func (c *chaosClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *chaosClock) AfterFunc(_ time.Duration, f func()) rep.Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reaper = append(c.reaper, f)
	return c
}

// Reset leaves the timer to the next leap, which passes every deadline:
// rep.CallTimeout, and the 60 s the harness gives a call at most.
func (c *chaosClock) Reset(time.Duration) bool { return true }

func (c *chaosClock) leap() {
	c.mu.Lock()
	c.now = c.now.Add(2 * time.Minute)
	reaper := c.reaper
	c.mu.Unlock()
	for _, reap := range reaper {
		reap()
	}
}

// drain waits until no release round is still in flight, so that no
// call of one operation meets a call of the next at a member: the fault
// schedule counts calls, and is the seed's alone only while a member
// takes them one at a time (package fault). The drain is where a driver
// stands between operations, next to settling in-doubt transactions.
func (h *chaosHarness) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if h.router != nil {
		return h.router.Drain(ctx)
	}
	for _, s := range h.suites {
		if err := s.Drain(ctx); err != nil {
			return err
		}
	}
	return nil
}

// RunChaos executes one deterministic chaos soak and returns its
// result. Violations are reported in the result, not as an error; the
// error covers harness failures (quorum misconfiguration, a member that
// could not be recovered, an audit that could not complete).
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg = cfg.withDefaults()
	res := ChaosResult{Config: cfg}

	h, err := buildChaosHarness(cfg)
	if err != nil {
		return res, err
	}

	hist := model.NewHistory()
	rng := rand.New(rand.NewSource(cfg.Seed))
	key := func() string { return fmt.Sprintf("k%04d", rng.Intn(chaosKeys)) }
	// The sharded workload widens the op mix with cross-shard
	// transactional upserts; the unsharded mix (and its rng stream) is
	// unchanged from earlier harness versions.
	opKinds := 10
	if cfg.Shards > 1 {
		opKinds = 12
	}

	for op := 0; op < cfg.Operations; op++ {
		if err := h.drain(); err != nil {
			return res, fmt.Errorf("sim: chaos %s: drain: %w", cfg.Name(), err)
		}
		// Midpoint storage-fault phase: in every shard, a minority of
		// members lose part of their logs and must come back through the
		// rebuild-from-peers path while the suite keeps serving around
		// them.
		if op == cfg.Operations/2 {
			for i := range h.suites {
				if err := storagePhase(h, i, &res); err != nil {
					return res, fmt.Errorf("sim: chaos %s: %w", cfg.Name(), err)
				}
			}
		}
		// Membership-churn phase: at its scheduled ops, reconfigure every
		// shard online — the epoch handoff racing the same fault schedule
		// the workload runs under.
		if h.churn != nil {
			for h.churn.next < len(h.churn.steps) && h.churn.steps[h.churn.next].AtOp == op {
				if err := churnPhase(h, cfg, op, h.churn.steps[h.churn.next], &res); err != nil {
					return res, fmt.Errorf("sim: chaos %s: %w", cfg.Name(), err)
				}
				h.churn.next++
			}
		}
		// Settle any in-doubt two-phase commits left by crashes, and let
		// the members reap strays, before the next operation; between
		// operations no coordinator is live, so both are safe.
		if n, rerr := h.resolve(context.Background()); true {
			res.Resolved += n
			if rerr != nil {
				return res, rerr
			}
		}

		ctx, cancel := context.WithTimeout(context.Background(), chaosOpTimeout)
		k := key()
		val := fmt.Sprintf("v%d", op)
		var err error
		switch kind := rng.Intn(opKinds); kind {
		case 0, 1, 2, 3, 4, 5, 6: // insert, update, delete
			var o *model.Op
			var ver version.V
			switch {
			case kind < 3:
				o = hist.Invoke(model.Write, k, val)
				ver, err = h.dir.InsertV(ctx, k, val)
			case kind < 5:
				o = hist.Invoke(model.Write, k, val)
				ver, err = h.dir.UpdateV(ctx, k, val)
			default:
				o = hist.Invoke(model.Delete, k, "")
				ver, err = h.dir.DeleteV(ctx, k)
			}
			switch {
			case err == nil:
				hist.Return(o, model.Ok, ver)
				res.Applied++
			case errors.Is(err, core.ErrKeyExists) || errors.Is(err, core.ErrKeyNotFound):
				hist.Refused(k, o, errors.Is(err, core.ErrKeyExists))
				res.Observed++
			default:
				hist.Return(o, model.Indeterminate, 0)
				res.Indeterminate++
			}
		case 10, 11: // cross-shard transactional upsert (sharded only)
			k2 := key()
			ops := []*model.Op{hist.Invoke(model.Write, k, val)}
			if k2 != k {
				ops = append(ops, hist.Invoke(model.Write, k2, val))
			}
			err = h.router.RunInTxn(ctx, func(x *shard.Txn) error {
				for _, kk := range []string{k, k2} {
					_, found, err := x.Lookup(ctx, kk)
					if err != nil {
						return err
					}
					if found {
						if err := x.Update(ctx, kk, val); err != nil {
							return err
						}
					} else if err := x.Insert(ctx, kk, val); err != nil {
						return err
					}
				}
				return nil
			})
			// Both keys got val or neither did, with no version in
			// hand: the reads that return val place it.
			out := model.Ok
			if err == nil {
				res.Applied++
			} else {
				out = model.Indeterminate
				res.Indeterminate++
			}
			for _, o := range ops {
				hist.Return(o, out, 0)
			}
		default: // lookup
			o := hist.Invoke(model.Read, k, "")
			got, found, ver, lerr := h.dir.LookupV(ctx, k)
			if err = lerr; err != nil {
				hist.Return(o, model.Fail, 0)
				res.FailedLookups++
			} else {
				hist.Read(o, got, found, ver)
				res.Lookups++
			}
		}
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			res.Timeouts++
		}

		// Periodic Count-vs-history assertion: a Count between
		// operations of the one client must land inside the history's
		// bounds. Under sharding this is the torn-cut detector — a
		// router counting shards outside one consistent transaction
		// could observe half of a cross-shard upsert and drift outside
		// the bounds. Counting needs to read-lock the whole keyspace,
		// so first settle the topology the way an operator would — a
		// count attempted mid-outage just times out and asserts
		// nothing. The plan reopens fresh windows with the very
		// next calls, so the chaos resumes immediately. Failures are
		// still tolerated (a window can reopen mid-count).
		if (op+1)%250 == 0 {
			if err := h.drain(); err != nil {
				return res, fmt.Errorf("sim: chaos %s: drain: %w", cfg.Name(), err)
			}
			var n int
			cerr := errors.New("count never attempted")
			for try := 0; try < 3 && cerr != nil; try++ {
				resolved, err := h.settle(context.Background())
				res.Resolved += resolved
				if err != nil {
					return res, fmt.Errorf("sim: chaos %s: %w", cfg.Name(), err)
				}
				cctx, ccancel := context.WithTimeout(context.Background(), chaosOpTimeout)
				n, cerr = h.dir.Count(cctx)
				ccancel()
			}
			if cerr != nil {
				res.CountFailures++
			} else {
				res.Counts++
				if lo, hi := hist.CountBounds(); n < lo || n > hi {
					res.Violations = append(res.Violations, fmt.Sprintf(
						"op %d: count %d outside the history's bounds [%d, %d]", op, n, lo, hi))
				}
			}
		}
	}

	// Quiesce: stop injecting, heal every window (restarting crashed
	// members from their logs), and resolve, at least once — every
	// coordinator is finished now.
	if err := h.drain(); err != nil {
		return res, fmt.Errorf("sim: chaos %s: drain: %w", cfg.Name(), err)
	}
	for _, in := range h.injectors {
		for _, m := range in.Members() {
			m.Quiesce()
		}
		if err := in.Heal(); err != nil {
			return res, err
		}
	}
	for pass := 0; pass == 0 || len(h.allInDoubt()) > 0; pass++ {
		if pass > 10 {
			return res, fmt.Errorf("sim: chaos %s: in-doubt transactions would not settle: %v",
				cfg.Name(), h.allInDoubt())
		}
		n, rerr := h.resolve(context.Background())
		res.Resolved += n
		if rerr != nil {
			return res, rerr
		}
	}

	// Convergence phase: per shard, converge drives every replica to
	// full agreement — each current entry installed everywhere at its
	// current version, every ghost purged — then the agreement is
	// verified against the replicas' physical contents. The budget
	// covers the whole phase — convergence,
	// audit, final count — and scales with shard count, since each
	// shard converges and audits in turn; a loaded CI machine running
	// the suite alongside other packages must not turn slow into failed.
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(len(h.suites))*30*time.Second)
	defer cancel()
	convOK := true
	for i := range h.suites {
		conv, err := converge(ctx, h.suites[i])
		res.Heal.Add(conv)
		if err != nil {
			return res, fmt.Errorf("sim: chaos %s: convergence: %w", cfg.Name(), err)
		}
		convViolations, err := auditConvergence(ctx, h.suites[i], h.injectors[i])
		if err != nil {
			return res, fmt.Errorf("sim: chaos %s: %w", cfg.Name(), err)
		}
		if len(convViolations) > 0 {
			convOK = false
			res.Violations = append(res.Violations, convViolations...)
		}
	}
	res.Converged = convOK

	// Final audit: every key a write touched is read twice more, into
	// the history; the second read must not go below the first.
	for _, k := range hist.Keys() {
		for pass := 0; pass < 2; pass++ {
			o := hist.Invoke(model.Read, k, "")
			got, found, ver, err := h.dir.LookupV(ctx, k)
			if err != nil {
				return res, fmt.Errorf("sim: chaos %s: audit lookup %s: %w", cfg.Name(), k, err)
			}
			hist.Read(o, got, found, ver)
		}
		res.AuditedKeys++
	}
	res.Violations = append(res.Violations, hist.Check()...)
	// Post-audit every key's last operation is a read above everything
	// indeterminate, so the count bounds collapse and Count must match
	// exactly — across every shard, stitched by the router when sharded.
	finalCount, err := h.dir.Count(ctx)
	if err != nil {
		return res, fmt.Errorf("sim: chaos %s: final count: %w", cfg.Name(), err)
	}
	res.Counts++
	if lo, hi := hist.CountBounds(); finalCount < lo || finalCount > hi {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"final count %d != history's count [%d, %d]", finalCount, lo, hi))
	}
	// The count's release round is counted below with everything else.
	if err := h.drain(); err != nil {
		return res, fmt.Errorf("sim: chaos %s: drain: %w", cfg.Name(), err)
	}

	for _, in := range h.injectors {
		for _, m := range in.Members() {
			res.Reaped += m.Rep().(*rep.Rep).Counters().Reaped
		}
		for _, s := range in.Stats() {
			res.Faults.Calls += s.Calls
			res.Faults.Rejected += s.Rejected
			res.Faults.Crashes += s.Crashes
			res.Faults.CrashAfters += s.CrashAfters
			res.Faults.Partitions += s.Partitions
			res.Faults.DroppedReplies += s.DroppedReplies
			res.Faults.Duplicates += s.Duplicates
			res.Faults.Restarts += s.Restarts
			res.Faults.StorageLosses += s.StorageLosses
		}
	}
	for _, s := range h.built {
		st := s.Stats()
		addSuiteStats(&res.Suite, st)
		// Every operation a suite accepted must land in exactly one
		// outcome column; a leak means some return path skipped its
		// counter. (Router transactions attach to suites without going
		// through their counters, so the identity holds per suite.)
		if got := st.Commits + st.Failures + st.Cancelled; got != st.Calls {
			qc := s.Config()
			res.Violations = append(res.Violations, fmt.Sprintf(
				"accounting: suite of %s at epoch %d: commits %d + failures %d + cancelled %d != calls %d",
				qc.Members[0].Dir.Name(), qc.Epoch, st.Commits, st.Failures, st.Cancelled, st.Calls))
		}
	}
	if h.router != nil {
		res.CrossShardTxns = h.router.Stats().CrossShard
	}
	for _, m := range h.managers {
		res.Epochs += m.Epoch()
	}
	return res, nil
}

// addSuiteStats folds one suite's counters into a total.
func addSuiteStats(dst *core.SuiteStats, s core.SuiteStats) {
	dst.Calls += s.Calls
	dst.Commits += s.Commits
	dst.Failures += s.Failures
	dst.Cancelled += s.Cancelled
	dst.Retries += s.Retries
	dst.Dies += s.Dies
	dst.ReplicaLosses += s.ReplicaLosses
	dst.StaleEpochRejections += s.StaleEpochRejections
	dst.WitnessVotes += s.WitnessVotes
}

// storagePhase corrupts a minority of one shard's members' logs mid-run
// and drives each through restart-in-recovering-mode and a synchronous
// rebuild from its peers. Quorum intersection tolerates a minority
// rebuilding, so the workload around this phase keeps completing
// against the rest.
func storagePhase(h *chaosHarness, shardIdx int, res *ChaosResult) error {
	members := h.injectors[shardIdx].Members()
	minority := (len(members) - 1) / 2
	if minority < 1 {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, m := range members[:minority] {
		res.RecordsLost += m.LoseStorage()
		res.StorageLosses++
	}
	// A rebuild pass is one repair transaction over the whole key
	// range, about 210 member calls at this harness's 48 keys, and the
	// first call the fault plan fails costs the pass its only other read
	// quorum (the victim refuses reads). Under DefaultPlan a call fails
	// with probability 0.014, so a pass survives with 0.986^210 = 0.05
	// and the number of passes needed is geometric: a bound of 50 left
	// 0.95^50 = 8% of seeds without a rebuild (5 of seeds 1-64 measured,
	// before and after the point operations were cut to fewer calls —
	// which seeds they are moves whenever the call sequence does), 150
	// leaves 0.05%. An attempt takes a few milliseconds.
	const rebuildAttempts = 150
	for _, m := range members[:minority] {
		var lastErr error
		for attempt := 0; ; attempt++ {
			if attempt >= rebuildAttempts {
				return fmt.Errorf("storage phase: rebuild of %s would not complete: %w", m.Name(), lastErr)
			}
			// Settle every shard: the victim restarts from its damaged
			// log in recovering mode (refusing reads until rebuilt),
			// everyone else comes back intact, so this rebuild attempt
			// can assemble read quorums instead of waiting out
			// call-counted fault windows; and a damaged log may have
			// forgotten prepares and aborts, whose locks would block the
			// rebuild's repair transactions. Fresh windows the plan opens
			// mid-attempt fail that attempt; the next one settles again.
			if _, err := h.settle(ctx); err != nil {
				return fmt.Errorf("storage phase: %w", err)
			}
			st, err := repairRetrying(ctx, h.suites[shardIdx], m)
			if err != nil {
				if ctx.Err() != nil {
					return fmt.Errorf("storage phase: rebuild %s: %w", m.Name(), err)
				}
				lastErr = err
				continue // transient faults from live members; retry
			}
			res.Rebuilds++
			res.Rebuild.Add(st)
			m.RebuildDone()
			break
		}
	}
	return nil
}

// Soak repair retry: a pass that failed transiently is re-run up to
// repairRetries times, backing off repairRetryBase doubled per attempt
// (25, 50, 100, 200ms), all inside the caller's context.
const (
	repairRetries   = 4
	repairRetryBase = 25 * time.Millisecond
)

// repairRetrying runs one core.RepairReplica pass over target and
// re-runs it while it fails transiently: a peer that is unreachable,
// still recovering, or won a wait-die conflict may well be fine a
// moment later. A pass reads whole quorums for every segment, so one
// flaky peer mid-pass would otherwise fail it; the pass is idempotent,
// so running it again is safe. Everything else (context expiry,
// semantic errors) surfaces at once. The retry serves the soak's
// storage and convergence phases only: reconfiguration seeds its
// newcomers with plain passes.
func repairRetrying(ctx context.Context, s *core.Suite, target rep.Directory) (core.RepairStats, error) {
	for attempt := 0; ; attempt++ {
		stats, err := core.RepairReplica(ctx, s, target, core.RepairOptions{})
		transient := errors.Is(err, transport.ErrUnavailable) ||
			errors.Is(err, rep.ErrRecovering) ||
			errors.Is(err, lock.ErrDie)
		if !transient || attempt >= repairRetries || ctx.Err() != nil {
			return stats, err
		}
		t := time.NewTimer(repairRetryBase << attempt)
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
}

// converge repairs every member of the suite's configuration, in name
// order, repeating whole passes until one copies and freshens nothing —
// at which point every replica physically holds every current entry at
// its current version, and no ghost. On a quiesced suite one pass plus
// one confirming pass suffices; the budget of 6 allows a few extra in
// case repairs race live traffic. It returns the work totals.
func converge(ctx context.Context, s *core.Suite) (core.RepairStats, error) {
	var dirs []rep.Directory
	for _, m := range s.Config().Members {
		dirs = append(dirs, m.Dir)
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].Name() < dirs[j].Name() })
	var total core.RepairStats
	for pass := 0; pass < 6; pass++ {
		var work core.RepairStats
		for _, d := range dirs {
			stats, err := repairRetrying(ctx, s, d)
			work.Add(stats)
			if err != nil {
				total.Add(work)
				return total, fmt.Errorf("converge %s: %w", d.Name(), err)
			}
		}
		total.Add(work)
		if work.Copied == 0 && work.Freshened == 0 {
			return total, nil
		}
	}
	return total, errors.New("replicas still diverging after 6 passes")
}

// auditConvergence checks physical replica agreement after converge
// finished: every current entry (by quorum scan) must be present on
// every replica with one identical (version, value), and no replica may
// hold anything else — a repaired member holds no ghost. Membership
// comes from the suite's configuration, not the injector: under churn,
// removed members are no longer obliged to hold anything, and witness
// members are audited for versions only (blank values are their
// contract, not divergence). It returns the violations found.
func auditConvergence(ctx context.Context, suite *core.Suite, injector *fault.Injector) ([]string, error) {
	current, err := suite.Scan(ctx, "", 0)
	if err != nil {
		return nil, fmt.Errorf("convergence scan: %w", err)
	}
	witness := make(map[string]bool)
	for _, mem := range suite.Config().Members {
		witness[mem.Dir.Name()] = mem.Witness
	}
	var audited []*fault.Member
	for _, m := range injector.Members() {
		if _, ok := witness[m.Name()]; ok {
			audited = append(audited, m)
		}
	}
	type dumper interface{ Dump() []btree.Entry }
	dumps := make(map[string]map[string]btree.Entry)
	for _, m := range audited {
		d, ok := m.Rep().(dumper)
		if !ok {
			return nil, fmt.Errorf("convergence: member %s not dumpable", m.Name())
		}
		entries := make(map[string]btree.Entry)
		for _, e := range d.Dump() {
			if e.Key.IsLow() || e.Key.IsHigh() {
				continue
			}
			if strings.HasPrefix(e.Key.Raw(), core.SysPrefix) {
				// The replicated configuration record lives outside the
				// user keyspace and legitimately differs across epochs'
				// write quorums; the record's own CAS protocol, not the
				// convergence audit, is its consistency story.
				continue
			}
			entries[e.Key.Raw()] = e
		}
		dumps[m.Name()] = entries
	}

	var violations []string
	currentSet := make(map[string]bool, len(current))
	for _, kv := range current {
		currentSet[kv.Key] = true
		first := true
		var refVersion btree.Entry
		for _, m := range audited {
			e, ok := dumps[m.Name()][kv.Key]
			switch {
			case !ok:
				violations = append(violations,
					fmt.Sprintf("convergence: %s missing current entry %s", m.Name(), kv.Key))
			case !witness[m.Name()] && e.Value != kv.Value:
				violations = append(violations,
					fmt.Sprintf("convergence: %s has %s=%q, current value is %q",
						m.Name(), kv.Key, e.Value, kv.Value))
			case first:
				refVersion, first = e, false
			case e.Version != refVersion.Version:
				violations = append(violations,
					fmt.Sprintf("convergence: %s holds %s at version %d, others at %d",
						m.Name(), kv.Key, e.Version, refVersion.Version))
			}
		}
	}

	// Ghosts: entries on some replica for keys that are not current.
	for _, m := range audited {
		for key := range dumps[m.Name()] {
			if !currentSet[key] {
				violations = append(violations,
					fmt.Sprintf("convergence: %s holds ghost %s", m.Name(), key))
			}
		}
	}
	return violations, nil
}

// RunChaosSeeds runs one soak per seed with the same base configuration.
func RunChaosSeeds(base ChaosConfig, seeds []int64) ([]ChaosResult, error) {
	out := make([]ChaosResult, 0, len(seeds))
	for _, seed := range seeds {
		cfg := base
		cfg.Seed = seed
		res, err := RunChaos(cfg)
		if err != nil {
			return out, fmt.Errorf("seed %d: %w", seed, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// FormatChaos renders soak results as a table, one row per seed.
func FormatChaos(title string, results []ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-20s %6s %8s %8s %7s %7s %7s %7s %6s %6s %6s %8s %5s %6s %5s %5s %6s %6s %6s %5s %5s\n",
		"run", "ops", "applied", "observe", "indet", "lookups", "crash", "partn", "dup", "drop", "rstrt", "resolved", "viol",
		"healed", "conv", "slost", "rebld", "counts", "xshard", "recfg", "epoch")
	for _, r := range results {
		conv := "no"
		if r.Converged {
			conv = "yes"
		}
		fmt.Fprintf(&b, "%-20s %6d %8d %8d %7d %7d %7d %7d %6d %6d %6d %8d %5d %6d %5s %5d %6d %6d %6d %5d %5d\n",
			r.Config.Name(), r.Config.Operations, r.Applied, r.Observed, r.Indeterminate,
			r.Lookups, r.Faults.Crashes+r.Faults.CrashAfters, r.Faults.Partitions,
			r.Faults.Duplicates, r.Faults.DroppedReplies, r.Faults.Restarts,
			r.Resolved, len(r.Violations),
			r.Heal.Copied+r.Heal.Freshened, conv, r.StorageLosses, r.Rebuilds,
			r.Counts, r.CrossShardTxns, r.Reconfigs, r.Epochs)
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "    VIOLATION: %s\n", v)
		}
	}
	return b.String()
}
