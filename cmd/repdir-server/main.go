// Command repdir-server runs one directory representative as a TCP
// server.
//
//	repdir-server -name A -addr 127.0.0.1:7001 \
//	              -wal /var/lib/repdir/A.wal -checkpoint 5m
//
// With -wal, committed state is logged and recovered across restarts;
// with -checkpoint, the log is periodically compacted — replaced by one
// that opens with the representative's state — bounding its size and
// recovery time. Without -wal the representative is volatile. A
// directory suite is formed by pointing repdir-cli (or any client built
// on the library) at several servers.
//
// The -recovery flag picks what to do with a damaged log: "strict"
// (default) refuses to start on anything worse than a torn tail,
// "salvage" recovers the longest valid prefix and quarantines the rest,
// and "rebuild" additionally opens empty when even salvage fails,
// leaving the replica to be rebuilt from its peers. Every log opens with
// a checkpoint section, written whole before it became the log (a new
// log holds an empty one), so damage inside it is beyond salvage.
//
// -name and -addr accept comma-separated lists of equal length to serve
// several representatives from one process — e.g. one member of every
// shard of a sharded deployment on a single host:
//
//	repdir-server -name s0r0,s1r0 -addr 127.0.0.1:7001,127.0.0.1:8001
//
// In that mode -wal, when set, is a template that must contain %s,
// expanded with each representative's name.
//
// -admit turns on CoDel-style overload shedding: when the dispatch
// queue's delay stays above -admit.target (default 5ms) for a full
// -admit.interval (default 100ms), newly arriving requests are refused
// with ErrOverloaded until the delay recovers — except two-phase-commit
// resolution, which is always served so shedding cannot wedge in-flight
// transactions. The controller's decisions (admitted, shed, expired,
// episodes) are exported per server on the -obs.addr metrics endpoint.
//
// -witness lists the -name entries to run as zero-data witnesses:
// they vote and track entry/gap versions but store no values, the
// cheap tie-breakers that `repdir-cli reconfig add <addr> ... witness`
// enrolls into a suite.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repdir/internal/obs"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repdir-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("repdir-server", flag.ContinueOnError)
	var (
		name     = fs.String("name", "rep", "representative name, or comma-separated names to serve several (must be unique within a suite)")
		addr     = fs.String("addr", "127.0.0.1:7001", "listen address, or comma-separated addresses matching -name")
		walPath  = fs.String("wal", "", "write-ahead log file (empty = volatile; %s template with multiple -name entries)")
		every    = fs.Duration("checkpoint", 0, "log compaction interval (0 = never; requires -wal)")
		fsync    = fs.String("fsync", "commit", "WAL fsync policy: commit, never, or always")
		recovery = fs.String("recovery", "strict", "WAL recovery policy: strict, salvage, or rebuild")
		conc     = fs.Int("concurrency", transport.DefaultPerConnConcurrency,
			"max requests served concurrently per client connection")
		admit = fs.Bool("admit", false,
			"enable CoDel-style overload shedding: sustained dispatch-queue delay refuses new work with ErrOverloaded (2PC resolution is never shed)")
		admitTarget = fs.Duration("admit.target", transport.DefaultAdmitTarget,
			"queue-delay target for -admit; sojourns above it for a full interval trip shedding")
		admitInterval = fs.Duration("admit.interval", transport.DefaultAdmitInterval,
			"how long queue delay must stay above -admit.target before shedding starts")
		obsAddr = fs.String("obs.addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty = off)")
		witness = fs.String("witness", "", "comma-separated -name entries to run as zero-data witnesses (votes and versions, no values)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *every > 0 && *walPath == "" {
		return errors.New("-checkpoint requires -wal")
	}
	policy, err := parseSyncPolicy(*fsync)
	if err != nil {
		return err
	}
	recoveryPolicy, err := rep.ParseRecoveryPolicy(*recovery)
	if err != nil {
		return err
	}
	if *conc < 1 {
		return errors.New("-concurrency must be at least 1")
	}

	names := splitList(*name)
	addrs := splitList(*addr)
	if len(names) == 0 {
		return errors.New("-name must list at least one representative")
	}
	if len(names) != len(addrs) {
		return fmt.Errorf("-name lists %d representative(s) but -addr lists %d address(es)",
			len(names), len(addrs))
	}
	multi := len(names) > 1
	if multi && *walPath != "" && !strings.Contains(*walPath, "%s") {
		return errors.New("-wal must contain %s when serving multiple representatives")
	}
	witnesses := make(map[string]bool)
	for _, wn := range splitList(*witness) {
		found := false
		for _, nm := range names {
			if nm == wn {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("-witness names %q, which is not in -name", wn)
		}
		witnesses[wn] = true
	}

	reps := make([]*rep.Rep, len(names))
	durables := make([]*rep.Durability, len(names))
	servers := make([]*transport.Server, len(names))
	for i, nm := range names {
		wp := *walPath
		if multi && wp != "" {
			wp = fmt.Sprintf(wp, nm)
		}
		r, durability, err := buildRep(nm, wp, policy, recoveryPolicy, witnesses[nm])
		if err != nil {
			return fmt.Errorf("%s: %w", nm, err)
		}
		if durability != nil {
			defer durability.Close()
			reportRecovery(nm, durability.Recovery())
			// In-doubt transactions hold their locks until cooperative
			// termination; leaving them silent would look like a hang to
			// whoever's repair scan blocks on the locked range.
			if ids := r.InDoubt(); len(ids) > 0 {
				fmt.Printf("%s: in-doubt transactions holding locks: %v — settle with repdir-cli resolve <id>\n", nm, ids)
			}
		}
		serveOpts := []transport.ServerOption{transport.WithPerConnConcurrency(*conc)}
		if *admit {
			serveOpts = append(serveOpts, transport.WithAdmission(*admitTarget, *admitInterval))
		}
		srv, err := transport.Serve(r, addrs[i], serveOpts...)
		if err != nil {
			return fmt.Errorf("%s: %w", nm, err)
		}
		defer srv.Close()
		reps[i], durables[i], servers[i] = r, durability, srv
		role := "representative"
		if witnesses[nm] {
			role = "witness"
		}
		fmt.Printf("%s %s serving on %s (%d entries)\n", role, nm, srv.Addr(), r.Len())
	}

	if *obsAddr != "" {
		osrv, err := obs.Serve(*obsAddr, metricsRegistry(reps, durables, servers, names), true)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		defer osrv.Close()
		fmt.Printf("[observability on http://%s/metrics]\n", osrv.Addr())
	}

	stop := make(chan struct{})
	var cp sync.WaitGroup
	for _, d := range durables {
		if d == nil {
			continue
		}
		cp.Add(1)
		go func(d *rep.Durability) {
			defer cp.Done()
			checkpointLoop(d, *every, stop)
		}(d)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stop)
	cp.Wait()
	for i, r := range reps {
		c := r.Counters()
		fmt.Printf("shutting down %s: %d lookups, %d neighbor probes, %d inserts, "+
			"%d coalesces (%d entries), %d prepares, %d commits, %d aborts\n",
			names[i], c.Lookups, c.NeighborProbes, c.Inserts,
			c.Coalesces, c.EntriesCoalesced, c.Prepares, c.Commits, c.Aborts)
		if *admit {
			a := servers[i].AdmissionStats()
			fmt.Printf("  admission %s: %d admitted, %d shed, %d expired, %d overload episodes\n",
				names[i], a.Admitted, a.Shed, a.Expired, a.Episodes)
		}
	}
	return nil
}

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// checkpointLoop periodically checkpoints a durable representative; a
// busy representative is simply retried on the next tick.
func checkpointLoop(d *rep.Durability, every time.Duration, stop <-chan struct{}) {
	if d == nil || every <= 0 {
		return
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := d.Checkpoint(); err != nil && !errors.Is(err, rep.ErrBusy) {
				fmt.Fprintln(os.Stderr, "repdir-server: checkpoint:", err)
			}
		case <-stop:
			return
		}
	}
}

// buildRep constructs the representative: durable when a WAL path is
// configured, volatile otherwise. A witness stores (and logs) versions
// but no values.
func buildRep(name, walPath string, policy wal.SyncPolicy, recovery rep.RecoveryPolicy, witness bool) (*rep.Rep, *rep.Durability, error) {
	var repOpts []rep.Option
	if witness {
		repOpts = append(repOpts, rep.AsWitness())
	}
	if walPath == "" {
		return rep.New(name, repOpts...), nil, nil
	}
	return rep.OpenDurable(name, walPath,
		rep.WithSyncPolicy(policy), rep.WithRecovery(recovery),
		rep.WithRepOptions(repOpts...))
}

// reportRecovery logs what OpenDurable found, loudly when it was not a
// clean start: an operator restarting after a disk fault needs to know
// whether writes were salvaged away and a repair is due.
func reportRecovery(name string, rec rep.RecoveryReport) {
	fmt.Printf("%s: recovered %d WAL records under the %s policy\n", name, rec.WALRecords, rec.Policy)
	if rec.Salvage != nil {
		fmt.Fprintf(os.Stderr, "repdir-server: %s: WAL damage: %s (tail preserved at %s)\n",
			name, rec.Salvage.Error(), rec.Salvage.SidecarPath)
	}
	if rec.Rebuilt {
		fmt.Fprintf(os.Stderr, "repdir-server: %s: opened empty after unrecoverable damage; rebuild from peers before serving reads\n", name)
	}
	if rec.NeedsRepair {
		fmt.Fprintf(os.Stderr, "repdir-server: %s: acknowledged writes may be missing; reconcile against peers\n", name)
	}
}

// metricsRegistry gathers what -obs.addr serves. Wire traffic (frames,
// batching factor, payload bytes) joins the representatives' own op
// counters, the admission decisions and what recovery found when the
// durable representatives opened (durables holds nil for a volatile
// one). A single-rep server keeps the historical "server" endpoint
// label; hosting several, each rep labels its own samples.
func metricsRegistry(reps []*rep.Rep, durables []*rep.Durability, servers []*transport.Server, names []string) *obs.Registry {
	registry := obs.NewRegistry()
	multi := len(names) > 1
	wire := make(map[string]*transport.WireStats, len(servers))
	for i, srv := range servers {
		ep := "server"
		if multi {
			ep = names[i]
		}
		wire[ep] = srv.WireStats()
	}
	transport.RegisterWireStats(registry, wire)
	registerRepMetrics(registry, reps, names)
	registerAdmissionMetrics(registry, servers, names, multi)
	registerStorageMetrics(registry, durables)
	return registry
}

// registerStorageMetrics sums the representatives' recovery reports,
// the one record of what each open salvaged or gave up on. A salvage
// that ended in a rebuild counts as the rebuild alone.
func registerStorageMetrics(reg *obs.Registry, durables []*rep.Durability) {
	var salvages, records, quarantined, rebuilds uint64
	for _, d := range durables {
		if d == nil {
			continue
		}
		switch rec := d.Recovery(); {
		case rec.Rebuilt:
			rebuilds++
		case rec.Salvage != nil:
			salvages++
			records += uint64(rec.Salvage.Records)
			quarantined += uint64(rec.Salvage.QuarantinedBytes)
		}
	}
	total := func(v uint64) func() uint64 { return func() uint64 { return v } }
	reg.Counter("repdir_storage_salvages_total",
		"WAL recoveries that stopped before a clean EOF and quarantined a tail.",
		total(salvages))
	reg.Counter("repdir_storage_salvaged_records_total",
		"Valid records recovered by WAL salvage scans.",
		total(records))
	reg.Counter("repdir_storage_quarantined_bytes_total",
		"Unreadable WAL tail bytes moved to quarantine sidecars.",
		total(quarantined))
	reg.Counter("repdir_storage_rebuilds_total",
		"Replicas opened empty and rebuilt from a quorum of peers.",
		total(rebuilds))
}

// registerRepMetrics exposes every hosted representative's cumulative
// operation counters alongside the wire stats.
func registerRepMetrics(reg *obs.Registry, reps []*rep.Rep, names []string) {
	reg.CounterVec("repdir_rep_ops_total",
		"Cumulative per-representative operation counts.",
		[]string{"member", "op"}, func() []obs.Sample {
			var out []obs.Sample
			for i, r := range reps {
				for op, v := range r.Counters().Map() {
					out = append(out, obs.Sample{Labels: []string{names[i], op}, Value: float64(v)})
				}
			}
			return out
		})
}

// registerAdmissionMetrics exposes each server's admission-controller
// decision counters. With -admit off, only the expired counter can move
// (hard deadline rejection runs regardless).
func registerAdmissionMetrics(reg *obs.Registry, servers []*transport.Server, names []string, multi bool) {
	reg.CounterVec("repdir_admission_total",
		"Cumulative admission-controller decisions per server.",
		[]string{"member", "decision"}, func() []obs.Sample {
			var out []obs.Sample
			for i, s := range servers {
				ep := "server"
				if multi {
					ep = names[i]
				}
				st := s.AdmissionStats()
				out = append(out,
					obs.Sample{Labels: []string{ep, "admitted"}, Value: float64(st.Admitted)},
					obs.Sample{Labels: []string{ep, "shed"}, Value: float64(st.Shed)},
					obs.Sample{Labels: []string{ep, "expired"}, Value: float64(st.Expired)},
					obs.Sample{Labels: []string{ep, "episodes"}, Value: float64(st.Episodes)})
			}
			return out
		})
}

// parseSyncPolicy maps the -fsync flag to a wal.SyncPolicy.
func parseSyncPolicy(s string) (wal.SyncPolicy, error) {
	switch s {
	case "commit":
		return wal.SyncOnCommit, nil
	case "never":
		return wal.SyncNever, nil
	case "always":
		return wal.SyncAlways, nil
	default:
		return 0, fmt.Errorf("unknown -fsync policy %q (want commit, never, or always)", s)
	}
}
