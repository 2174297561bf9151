// Command repdir-cli operates a replicated directory suite formed from
// running repdir-server instances.
//
//	repdir-cli -replicas 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//	           -r 2 -w 2 lookup somekey
//
// With -splits the keyspace is sharded: each split key is the inclusive
// lower bound of the next shard, -replicas takes one ';'-separated
// replica group per shard, and every subcommand is routed through the
// shard router instead of a single suite:
//
//	repdir-cli -splits m \
//	           -replicas '127.0.0.1:7001,127.0.0.1:7002;127.0.0.1:8001,127.0.0.1:8002' \
//	           scan
//
// Subcommands:
//
//	lookup <key>          print the entry's value, if any
//	insert <key> <value>  create an entry
//	update <key> <value>  replace an entry's value
//	delete <key>          remove an entry
//	scan   [after] [max]  list entries in key order
//	resolve <txn-id>      cooperative termination of an in-doubt
//	                      two-phase commit (coordinator crashed)
//	repair <addr>         bring the replica at addr fully current:
//	                      copy/freshen every current entry, purge
//	                      ghosts, install current gap versions
//	reconfig show         print the replicated configuration record
//	reconfig init         write the initial record (epoch 1) from the
//	                      -replicas/-r/-w seed configuration
//	reconfig add <addr> <votes> <r> <w> [witness]
//	                      add a member (zero-data witness with the
//	                      trailing keyword) and move to quorums r/w via
//	                      an epoch-fenced joint transition
//	reconfig remove <name> <r> <w>
//	                      remove a member and move to quorums r/w
//	reconfig reweight <name> <votes> <r> <w>
//	                      change a member's votes and move to quorums r/w
//	reconfig finish       complete a joint transition a crashed
//	                      reconfiguration left behind
//	bench  <n>            time n insert+lookup+delete cycles
//	load   <clients> <duration>
//	                      mixed read/write load from concurrent clients,
//	                      reporting throughput and retry/abort counts
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/core"
	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/reconfig"
	"repdir/internal/rep"
	"repdir/internal/shard"
	"repdir/internal/transport"
	"repdir/internal/txn"
	"repdir/internal/version"
)

// directory is the client-facing surface the subcommands need; both a
// single *core.Suite and a *shard.Router satisfy it, so the command
// logic is indifferent to whether -splits sharded the keyspace.
type directory interface {
	LookupV(ctx context.Context, key string) (string, bool, version.V, error)
	InsertV(ctx context.Context, key, value string) (version.V, error)
	UpdateV(ctx context.Context, key, value string) (version.V, error)
	DeleteV(ctx context.Context, key string) (version.V, error)
	Scan(ctx context.Context, after string, limit int) ([]core.KV, error)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repdir-cli:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("repdir-cli", flag.ContinueOnError)
	var (
		replicas = fs.String("replicas", "127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003",
			"comma-separated representative addresses")
		r        = fs.Int("r", 2, "read quorum size (votes)")
		w        = fs.Int("w", 2, "write quorum size (votes)")
		timeout  = fs.Duration("timeout", 10*time.Second, "per-operation timeout")
		parallel = fs.Bool("parallel", true, "issue quorum messages concurrently")
		splits   = fs.String("splits", "",
			"comma-separated shard split keys; with N splits, -replicas takes N+1 ';'-separated replica groups")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("missing subcommand (lookup, insert, update, delete, scan, resolve, repair, reconfig, bench, load)")
	}

	groups, splitKeys, err := parseTopology(*replicas, *splits)
	if err != nil {
		return err
	}
	dir, suites, dirs, closeAll, err := connect(groups, splitKeys, *r, *w, *parallel)
	if err != nil {
		return err
	}
	defer closeAll()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch cmd, rest := rest[0], rest[1:]; cmd {
	case "lookup":
		if len(rest) != 1 {
			return errors.New("usage: lookup <key>")
		}
		value, found, _, err := dir.LookupV(ctx, rest[0])
		if err != nil {
			return err
		}
		if !found {
			fmt.Printf("%s: not present\n", rest[0])
			return nil
		}
		fmt.Printf("%s = %s\n", rest[0], value)
		return nil
	case "insert", "update":
		if len(rest) != 2 {
			return fmt.Errorf("usage: %s <key> <value>", cmd)
		}
		write := dir.InsertV
		if cmd == "update" {
			write = dir.UpdateV
		}
		_, err := write(ctx, rest[0], rest[1])
		return err
	case "delete":
		if len(rest) != 1 {
			return errors.New("usage: delete <key>")
		}
		_, err := dir.DeleteV(ctx, rest[0])
		return err
	case "scan":
		after := ""
		limit := 0
		if len(rest) > 0 {
			after = rest[0]
		}
		if len(rest) > 1 {
			n, err := strconv.Atoi(rest[1])
			if err != nil || n < 0 {
				return fmt.Errorf("bad scan limit %q", rest[1])
			}
			limit = n
		}
		entries, err := dir.Scan(ctx, after, limit)
		if err != nil {
			return err
		}
		for _, kv := range entries {
			fmt.Printf("%s = %s\n", kv.Key, kv.Value)
		}
		fmt.Printf("(%d entries)\n", len(entries))
		return nil
	case "resolve":
		if len(rest) != 1 {
			return errors.New("usage: resolve <txn-id>")
		}
		id, err := strconv.ParseUint(rest[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad transaction id %q", rest[0])
		}
		// dirs spans every shard's replicas: a cross-shard transaction's
		// participants are spread over the groups, and resolving against
		// a subset could abort a prepared participant whose sibling
		// committed in a shard the resolver never consulted.
		res, err := txn.Resolve(ctx, lock.TxnID(id), dirs)
		if err != nil {
			return err
		}
		outcome := "aborted"
		if res.Committed {
			outcome = "committed"
		}
		fmt.Printf("transaction %d %s; finished at %d in-doubt participant(s) %v\n",
			id, outcome, len(res.Finished), res.Finished)
		return nil
	case "repair":
		if len(rest) != 1 {
			return errors.New("usage: repair <addr>")
		}
		addr := strings.TrimSpace(rest[0])
		// A replica holds only its own shard's range, so the repair
		// source must be the suite whose group the address belongs to.
		owner := suites[0]
		if len(suites) > 1 {
			owner = nil
			for i, g := range groups {
				for _, a := range g {
					if a == addr {
						owner = suites[i]
					}
				}
			}
			if owner == nil {
				return fmt.Errorf("repair target %s is not in any -replicas group", addr)
			}
		}
		target, err := transport.Dial(addr)
		if err != nil {
			return err
		}
		defer target.Close()
		stats, err := core.RepairReplica(ctx, owner, target, core.RepairOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("repaired %s: %d entries scanned, %d copied, %d freshened, %d gap segments\n",
			target.Name(), stats.Scanned, stats.Copied, stats.Freshened, stats.Gaps)
		return nil
	case "reconfig":
		if len(groups) > 1 {
			return errors.New("reconfig operates on a single replica group (no -splits)")
		}
		return reconfigCmd(ctx, suites[0], rest)
	case "bench":
		if len(rest) != 1 {
			return errors.New("usage: bench <n>")
		}
		n, err := strconv.Atoi(rest[0])
		if err != nil || n < 1 {
			return fmt.Errorf("bad cycle count %q", rest[0])
		}
		return bench(dir, n, *timeout)
	case "load":
		if len(rest) != 2 {
			return errors.New("usage: load <clients> <duration>")
		}
		clients, err := strconv.Atoi(rest[0])
		if err != nil || clients < 1 {
			return fmt.Errorf("bad client count %q", rest[0])
		}
		dur, err := time.ParseDuration(rest[1])
		if err != nil || dur <= 0 {
			return fmt.Errorf("bad duration %q", rest[1])
		}
		return load(groups, splitKeys, *r, *w, *parallel, clients, dur, *timeout)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// load drives a mixed workload (50% lookups, 25% upserts, 25% deletes)
// from concurrent clients and reports throughput alongside aggregated
// retry/abort counters. Each load client dials its own connections: a
// transport.Client serializes calls per connection, so sharing one
// between concurrent transactions would head-of-line block a
// transaction's control messages behind another's lock waits.
func load(groups [][]string, splitKeys []string, r, w int, parallel bool, clients int, dur, opTimeout time.Duration) error {
	var (
		ok       atomic.Uint64
		failures atomic.Uint64
		statsMu  sync.Mutex
		total    core.SuiteStats
	)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dir, suites, _, closeAll, err := connect(groups, splitKeys, r, w, parallel)
			if err != nil {
				errCh <- err
				return
			}
			defer closeAll()
			defer func() {
				statsMu.Lock()
				for _, suite := range suites {
					st := suite.Stats()
					total.Commits += st.Commits
					total.Retries += st.Retries
					total.Dies += st.Dies
					total.ReplicaLosses += st.ReplicaLosses
				}
				statsMu.Unlock()
			}()
			rng := rand.New(rand.NewSource(int64(c) + start.UnixNano()))
			for i := 0; time.Now().Before(deadline); i++ {
				key := fmt.Sprintf("load-c%d-k%d", c, rng.Intn(32))
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				var err error
				switch rng.Intn(4) {
				case 0, 1:
					_, _, _, err = dir.LookupV(ctx, key)
				case 2:
					_, err = dir.UpdateV(ctx, key, fmt.Sprintf("v%d", i))
					if errors.Is(err, core.ErrKeyNotFound) {
						_, err = dir.InsertV(ctx, key, fmt.Sprintf("v%d", i))
					}
				case 3:
					_, err = dir.DeleteV(ctx, key)
					if errors.Is(err, core.ErrKeyNotFound) {
						err = nil
					}
				}
				cancel()
				if err != nil {
					failures.Add(1)
				} else {
					ok.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("%d clients, %v: %d ops ok (%.0f ops/s), %d failed\n",
		clients, elapsed.Round(time.Millisecond), ok.Load(),
		float64(ok.Load())/elapsed.Seconds(), failures.Load())
	fmt.Printf("suites: %d commits, %d retries, %d wait-die aborts, %d replica losses\n",
		total.Commits, total.Retries, total.Dies, total.ReplicaLosses)
	return nil
}

// parseTopology splits -replicas into per-shard address groups. Without
// -splits the whole flag is one comma-separated group; with N split keys
// it must hold exactly N+1 groups separated by ';'.
func parseTopology(replicas, splits string) (groups [][]string, splitKeys []string, err error) {
	if splits != "" {
		for _, s := range strings.Split(splits, ",") {
			if s = strings.TrimSpace(s); s != "" {
				splitKeys = append(splitKeys, s)
			}
		}
	}
	for _, g := range strings.Split(replicas, ";") {
		var addrs []string
		for _, a := range strings.Split(g, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) > 0 {
			groups = append(groups, addrs)
		}
	}
	if len(groups) != len(splitKeys)+1 {
		return nil, nil, fmt.Errorf("-splits names %d key(s), so -replicas must hold %d ';'-separated group(s), got %d",
			len(splitKeys), len(splitKeys)+1, len(groups))
	}
	return groups, splitKeys, nil
}

// connect dials every representative, builds one suite per replica
// group, and — when -splits sharded the keyspace — a router over them.
// dirs collects every dialed replica across all groups, the participant
// set cooperative termination needs. closeAll closes the directory
// before the connections: a read-only operation returns before the round
// that releases its locks has been answered, and a process that hung up
// first would leave those locks held at the representatives.
func connect(groups [][]string, splitKeys []string, r, w int, parallel bool) (directory, []*core.Suite, []rep.Directory, func(), error) {
	var clients []*transport.Client
	closeDir := func() {}
	closeAll := func() {
		closeDir()
		for _, c := range clients {
			c.Close()
		}
	}
	fail := func(err error) (directory, []*core.Suite, []rep.Directory, func(), error) {
		closeAll()
		return nil, nil, nil, nil, err
	}
	var (
		suites  []*core.Suite
		allDirs []rep.Directory
	)
	for _, addrs := range groups {
		dirs := make([]rep.Directory, 0, len(addrs))
		for _, addr := range addrs {
			c, err := transport.Dial(addr)
			if err != nil {
				return fail(fmt.Errorf("dial %s: %w", addr, err))
			}
			clients = append(clients, c)
			dirs = append(dirs, c)
			allDirs = append(allDirs, c)
		}
		suite, err := core.NewSuite(quorum.NewUniform(dirs, r, w), core.WithParallelQuorum(parallel))
		if err != nil {
			return fail(err)
		}
		suites = append(suites, suite)
	}
	if len(suites) == 1 {
		// Reconfigured clusters fence unversioned (epoch-0) clients, so a
		// single-group client must check for a configuration record and,
		// when one exists, operate through a manager that carries — and
		// keeps refreshed — the recorded epoch. The -replicas flag is then
		// only the bootstrap connection set.
		resolver := reconfig.ResolverFunc(func(spec reconfig.MemberSpec) (rep.Directory, error) {
			if spec.Addr == "" {
				return nil, fmt.Errorf("member %s has no recorded address", spec.Name)
			}
			c, err := transport.Dial(spec.Addr)
			if err != nil {
				return nil, err
			}
			clients = append(clients, c)
			return c, nil
		})
		if m, err := reconfig.NewManager(suites[0].Config(), reconfig.WithResolver(resolver)); err == nil {
			rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			rec, rerr := m.Refresh(rctx)
			cancel()
			if rerr == nil && rec.Epoch != 0 {
				suites[0].Close()
				closeDir = func() { m.Suite().Close() }
				return m, []*core.Suite{m.Suite()}, allDirs, closeAll, nil
			}
			m.Suite().Close()
		}
		closeDir = suites[0].Close
		return suites[0], suites, allDirs, closeAll, nil
	}
	m, err := shard.NewMap(splitKeys...)
	if err != nil {
		return fail(err)
	}
	router, err := shard.NewRouter(m, suites,
		shard.WithIDSource(txn.NewIDSource(1023)),
		shard.WithParallelStitch(parallel))
	if err != nil {
		return fail(err)
	}
	closeDir = router.Close
	return router, suites, allDirs, closeAll, nil
}

// reconfigCmd drives the epoch-fenced membership verbs against a
// single replica group. The -replicas/-r/-w flags are only the seed
// connection set: once a record exists, the replicated record is
// authoritative and the manager adopts it before doing anything.
func reconfigCmd(ctx context.Context, suite *core.Suite, rest []string) error {
	if len(rest) == 0 {
		return errors.New("usage: reconfig show|init|add|remove|reweight|finish ...")
	}
	var dialed []*transport.Client
	defer func() {
		for _, c := range dialed {
			c.Close()
		}
	}()
	// Members joined in earlier epochs are known to the record by name
	// and address, not to this process: the resolver dials them.
	resolver := reconfig.ResolverFunc(func(spec reconfig.MemberSpec) (rep.Directory, error) {
		if spec.Addr == "" {
			return nil, fmt.Errorf("member %s has no recorded address", spec.Name)
		}
		c, err := transport.Dial(spec.Addr)
		if err != nil {
			return nil, err
		}
		dialed = append(dialed, c)
		return c, nil
	})
	// Seed at epoch 0 regardless of what the connection-time adoption
	// stamped on the suite: a versioned seed would make the manager trust
	// its own (address-less) rendering of the configuration over the
	// stored record, and the next written record would drop the dial
	// addresses remote members are resolved by. With an unversioned seed
	// the first Refresh adopts the stored record verbatim.
	seedCfg := suite.Config()
	seedCfg.Epoch = 0
	m, err := reconfig.NewManager(seedCfg, reconfig.WithResolver(resolver))
	if err != nil {
		return err
	}
	defer m.Suite().Close()

	printRecord := func(rec reconfig.Record) {
		fmt.Printf("epoch %d (%s): R=%d W=%d\n", rec.Epoch, rec.Phase, rec.Current.R, rec.Current.W)
		for _, spec := range rec.Current.Members {
			kind := "member"
			if spec.Witness {
				kind = "witness"
			}
			fmt.Printf("  %-12s %s votes=%d addr=%s\n", spec.Name, kind, spec.Votes, spec.Addr)
		}
		if rec.Old != nil {
			fmt.Printf("  (transition from R=%d W=%d, %d member(s); run 'reconfig finish' if it stalls)\n",
				rec.Old.R, rec.Old.W, len(rec.Old.Members))
		}
	}
	quorums := func(rs, ws string) (int, int, error) {
		r, err := strconv.Atoi(rs)
		if err != nil || r < 1 {
			return 0, 0, fmt.Errorf("bad read quorum %q", rs)
		}
		w, err := strconv.Atoi(ws)
		if err != nil || w < 1 {
			return 0, 0, fmt.Errorf("bad write quorum %q", ws)
		}
		return r, w, nil
	}

	switch verb, rest := rest[0], rest[1:]; verb {
	case "show":
		rec, err := m.Refresh(ctx)
		if errors.Is(err, reconfig.ErrNoRecord) {
			fmt.Println("no configuration record; run 'reconfig init'")
			return nil
		}
		if err != nil {
			return err
		}
		printRecord(rec)
		return nil
	case "init":
		rec, err := m.Init(ctx)
		if err != nil {
			return err
		}
		printRecord(rec)
		return nil
	case "add":
		if len(rest) != 4 && !(len(rest) == 5 && rest[4] == "witness") {
			return errors.New("usage: reconfig add <addr> <votes> <r> <w> [witness]")
		}
		votes, err := strconv.Atoi(rest[1])
		if err != nil || votes < 1 {
			return fmt.Errorf("bad votes %q", rest[1])
		}
		r, w, err := quorums(rest[2], rest[3])
		if err != nil {
			return err
		}
		addr := strings.TrimSpace(rest[0])
		c, err := transport.Dial(addr)
		if err != nil {
			return fmt.Errorf("dial %s: %w", addr, err)
		}
		dialed = append(dialed, c)
		rec, err := m.Reconfigure(ctx, reconfig.Change{
			Add: []reconfig.Addition{{Dir: c, Votes: votes, Witness: len(rest) == 5, Addr: addr}},
			R:   r, W: w,
		})
		if err != nil {
			return err
		}
		printRecord(rec)
		return nil
	case "remove":
		if len(rest) != 3 {
			return errors.New("usage: reconfig remove <name> <r> <w>")
		}
		r, w, err := quorums(rest[1], rest[2])
		if err != nil {
			return err
		}
		rec, err := m.Reconfigure(ctx, reconfig.Change{Remove: []string{rest[0]}, R: r, W: w})
		if err != nil {
			return err
		}
		printRecord(rec)
		return nil
	case "reweight":
		if len(rest) != 4 {
			return errors.New("usage: reconfig reweight <name> <votes> <r> <w>")
		}
		votes, err := strconv.Atoi(rest[1])
		if err != nil || votes < 1 {
			return fmt.Errorf("bad votes %q", rest[1])
		}
		r, w, err := quorums(rest[2], rest[3])
		if err != nil {
			return err
		}
		rec, err := m.Reconfigure(ctx, reconfig.Change{
			Reweight: map[string]int{rest[0]: votes}, R: r, W: w,
		})
		if err != nil {
			return err
		}
		printRecord(rec)
		return nil
	case "finish":
		rec, err := m.CompleteTransition(ctx)
		if err != nil {
			return err
		}
		printRecord(rec)
		return nil
	default:
		return fmt.Errorf("unknown reconfig verb %q", verb)
	}
}

// bench times n insert+lookup+delete cycles against the live directory.
func bench(dir directory, n int, timeout time.Duration) error {
	start := time.Now()
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		key := fmt.Sprintf("bench-%d-%d", start.UnixNano(), i)
		if _, err := dir.InsertV(ctx, key, "x"); err != nil {
			cancel()
			return fmt.Errorf("cycle %d insert: %w", i, err)
		}
		if _, found, _, err := dir.LookupV(ctx, key); err != nil || !found {
			cancel()
			return fmt.Errorf("cycle %d lookup: found=%v err=%v", i, found, err)
		}
		if _, err := dir.DeleteV(ctx, key); err != nil {
			cancel()
			return fmt.Errorf("cycle %d delete: %w", i, err)
		}
		cancel()
	}
	elapsed := time.Since(start)
	fmt.Printf("%d cycles in %v (%.1f cycles/s, %v per cycle)\n",
		n, elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds(), (elapsed / time.Duration(n)).Round(time.Microsecond))
	return nil
}
