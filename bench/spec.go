package main

import "time"

// opKind is a directory operation the driver issues.
type opKind uint8

const (
	opLookup opKind = iota
	opUpdate
	opInsert
	opDelete
	opScan
	nOpKinds
)

var opNames = [nOpKinds]string{"lookup", "update", "insert", "delete", "scan"}

// spec describes one workload: the deployment it runs on and the traffic
// it sends. The names and the reasons are repeated in BENCHMARK.json
// (TestManifestMatchesSpecs keeps the two in step).
type spec struct {
	name string
	why  string

	// Deployment.
	procs    int           // GOMAXPROCS
	shards   int           // 3-2-2 suites behind a shard.Router when > 1
	tcp      bool          // loopback transport.Serve/Dial; else transport.NewLocal
	fileLog  bool          // wal.NewFileLog over a simFile; else a log that keeps nothing
	rtt      time.Duration // modelled round trip added to every member call after preload
	fsync    time.Duration // modelled cost of simFile.Sync after preload
	parallel bool          // core.WithParallelQuorum / shard.WithParallelStitch

	// Traffic.
	keys      int
	clients   int
	mix       [nOpKinds]int // percent per kind, sums to 100
	zipf      float64       // skew of lookup and scan keys; 0 = uniform
	scanLimit int

	// The traced run takes its count metrics over each client's first
	// countOps operations, so that they do not depend on how fast the
	// host happens to be.
	countOps int
}

// The workloads, in the order BENCHMARK.json lists them.
var specs = []spec{
	{
		name: "lan-point",
		why: "replicas a 1 ms round trip away with a 2 ms fsync, 8 callers, point reads and writes: " +
			"latency is rounds x RTT + fsyncs + lock waits, so fewer rounds, group commit and batching show, CPU savings do not",
		procs: 2, shards: 1, tcp: true, fileLog: true, rtt: time.Millisecond, fsync: 2 * time.Millisecond, parallel: true,
		keys: 32_000, clients: 8,
		mix:      [nOpKinds]int{opLookup: 50, opUpdate: 30, opInsert: 10, opDelete: 10},
		countOps: 300,
	},
	{
		name: "lan-sharded-scan",
		why: "4 shards in process, 1 ms per member call, no TCP and no fsync, skewed 10-entry scans beside point ops: " +
			"range reads, range locks and the shard router; a transport or wal change must not move it",
		procs: 2, shards: 4, rtt: time.Millisecond, parallel: true,
		keys: 256_000, clients: 16,
		mix:  [nOpKinds]int{opScan: 70, opLookup: 20, opUpdate: 10},
		zipf: 1.2, scanLimit: 10,
		countOps: 40,
	},
	{
		name: "lan-lookup",
		why: "the lan-point deployment with no log, 2 callers, lookups only: nothing to wait for but round trips, " +
			"so rounds, wire and allocations per read show undisturbed; bypasses wal, 2PC and Coalesce",
		// One processor: with two, a reply wakes a processor that went
		// idle waiting for it, and on a virtual machine the time that
		// takes varies by more than the read path costs.
		procs: 1, shards: 1, tcp: true, rtt: time.Millisecond, parallel: true,
		keys: 56_000, clients: 2,
		mix:      [nOpKinds]int{opLookup: 100},
		countOps: 1000,
	},
	{
		name: "lan-churn",
		why: "one suite in process, 1 caller, sequential quorum, 1 ms per member call, no log, all four point ops: " +
			"latency is messages x RTT, counts repeat exactly; core, rep, lock, btree without transport or wal",
		procs: 2, shards: 1, rtt: time.Millisecond,
		keys: 320_000, clients: 1,
		mix:      [nOpKinds]int{opLookup: 40, opUpdate: 30, opInsert: 15, opDelete: 15},
		countOps: 300,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

// End-to-end metrics. Every workload reports every one of them, so each
// is defined where any operation runs: the per-class latencies the issue
// wanted for single workloads (write, delete, scan) are per-layer
// metrics (op.*) instead. A bound is at least three times the widest
// spread of the metric over ten runs of any workload (README, Host noise).
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s", "higher", 0.20},
	{"lookup_p50_us", "us", "lower", 0.20},
	{"p95_us", "us", "lower", 0.25},
	{"msgs_per_op", "count", "lower", 0.05},
	{"allocs_per_op", "count", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics, printed by the traced run.
var perLayer = []metricDef{
	{name: "op.write_p50_us", unit: "us", better: "lower"},
	{name: "op.delete_p50_us", unit: "us", better: "lower"},
	{name: "op.scan_p50_us", unit: "us", better: "lower"},

	{name: "core.self_us_per_op", unit: "us", better: "lower"},
	{name: "core.rounds_per_op", unit: "count", better: "lower"},
	{name: "core.calls_per_op.lookup", unit: "count", better: "lower"},
	{name: "core.calls_per_op.neighbor", unit: "count", better: "lower"},
	{name: "core.calls_per_op.insert", unit: "count", better: "lower"},
	{name: "core.calls_per_op.coalesce", unit: "count", better: "lower"},
	{name: "core.calls_per_op.prepare", unit: "count", better: "lower"},
	{name: "core.calls_per_op.commit", unit: "count", better: "lower"},
	{name: "core.calls_per_op.abort", unit: "count", better: "lower"},
	{name: "core.retries_per_op", unit: "count", better: "lower"},
	{name: "core.dies_per_op", unit: "count", better: "lower"},
	{name: "core.neighbor_rpcs_per_delete", unit: "count", better: "lower"},
	{name: "core.walk_steps_per_delete", unit: "count", better: "lower"},
	{name: "core.ghosts_per_delete", unit: "count", better: "lower"},

	{name: "shard.suites_per_op", unit: "count", better: "lower"},
	{name: "shard.cross_shard_share", unit: "ratio", better: "lower"},
	{name: "shard.retries_per_op", unit: "count", better: "lower"},

	{name: "transport.call_us_p50", unit: "us", better: "lower"},
	{name: "transport.call_us_p95", unit: "us", better: "lower"},
	{name: "transport.delay_us_per_call", unit: "us", better: "lower"},
	{name: "transport.self_us_per_call", unit: "us", better: "lower"},
	{name: "transport.frames_per_op", unit: "count", better: "lower"},
	{name: "transport.msgs_per_frame", unit: "count", better: "higher"},
	{name: "transport.wire_bytes_per_op", unit: "B", better: "lower"},
	{name: "transport.shed_per_op", unit: "count", better: "lower"},
	{name: "transport.expired_per_op", unit: "count", better: "lower"},

	{name: "rep.read_us_per_call", unit: "us", better: "lower"},
	{name: "rep.write_us_per_call", unit: "us", better: "lower"},
	{name: "rep.twopc_us_per_call", unit: "us", better: "lower"},
	{name: "rep.busy_us_per_op", unit: "us", better: "lower"},
	{name: "rep.entries", unit: "count", better: "lower"},

	{name: "lock.grants_per_op", unit: "count", better: "lower"},
	{name: "lock.waits_per_op", unit: "count", better: "lower"},
	{name: "lock.dies_per_op", unit: "count", better: "lower"},

	{name: "wal.appends_per_op", unit: "count", better: "lower"},
	{name: "wal.append_us_p50", unit: "us", better: "lower"},
	{name: "wal.queue_us_per_append", unit: "us", better: "lower"},
	{name: "wal.syncs_per_op", unit: "count", better: "lower"},
	{name: "wal.sync_us_per_op", unit: "us", better: "lower"},
	{name: "wal.bytes_per_op", unit: "B", better: "lower"},

	{name: "proc.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "proc.busy_cores", unit: "count", better: "lower"},
	{name: "proc.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "proc.gc_cycles_per_s", unit: "1/s", better: "lower"},
	{name: "proc.live_heap_mb", unit: "MB", better: "lower"},

	{name: "gen.share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}
