# Developer entry points. `make check` is the gate CI and pre-commit
# hooks should run: vet + build + full test suite under the race
# detector, plus the deterministic chaos soak.

GO ?= go

.PHONY: check vet build test race bench benchall benchshard benchsmoke benchtest benchworkload benchoverload benchdiff workload overload raceoverload chaos crash shard reconfig obsdeps

check: vet obsdeps build race shard crash chaos reconfig workload overload raceoverload benchsmoke benchtest

vet:
	$(GO) vet ./...

# internal/obs must stay stdlib-only: it sits at the bottom of the
# import graph (core, transport, and heal all import it), so any
# dependency it grows is a dependency of everything.
obsdeps:
	@deps=$$($(GO) list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' repdir/internal/obs | grep -v '^repdir/internal/obs$$' || true); \
	if [ -n "$$deps" ]; then \
		echo "internal/obs has non-stdlib dependencies:"; echo "$$deps"; exit 1; \
	fi
	@echo "internal/obs is stdlib-only"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Deterministic fault-injection soak (see EXPERIMENTS.md): five seeds,
# 1000 ops each, crash/partition/duplicate/drop injection under -race,
# every completed operation checked against the sequential model. A
# failing seed is printed and replays with -chaos.seed=N. Set
# REPDIR_CHAOS_LONG=1 for the long soak (20 seeds x 10000 ops).
chaos:
	$(GO) test -race -count 1 -run 'TestChaosSoak' -v .

# Sharding gate: the router/suite equivalence suite (every traversal op
# against the same data through a router and through one suite must
# agree, split points placed on, between, and outside the keys), a
# moment of split-placement fuzzing and one of fuzzing the merge every
# traversal is made of (arbitrary member replies against Figure 8 key by
# key), and the sharded chaos soak driving cross-shard transactions and
# Count checks under fault injection.
shard:
	$(GO) test -race -count 1 -run 'TestEquivalence|TestMap|TestRouter|TestCrossShard|TestManyShards|TestCountConsistent' -v ./internal/shard/
	$(GO) test -run xxx -fuzz FuzzSplitPlacement -fuzztime 10s ./internal/shard/
	$(GO) test -run xxx -fuzz FuzzMergeRuns -fuzztime 10s ./internal/core/
	$(GO) test -race -count 1 -run 'TestChaosSoakSharded|TestChaosShardedDeterministic' -v .

# Storage-fault gate: the crash-point harness (power loss at every byte
# boundary of a logged workload, one flipped bit at every byte — see
# DESIGN.md section 11) plus a short chaos soak whose storage phase
# wipes a minority of WALs mid-run and rebuilds them from peers. The
# soak seed doubles as the replay handle on failure. Recovery reads two
# formats back that something else wrote — the log's record stream and
# the wire's messages — so each decoder gets a moment of fuzzing here:
# the record codec must round-trip every record and refuse every byte
# string that is not one, log analysis must decide every transaction one
# way whatever order its records come in, and the wire codec must
# round-trip every tag.
crash:
	$(GO) test -count 1 -run 'TestCrashPoints' -v ./internal/fault/
	$(GO) test -run xxx -fuzz FuzzRecordRoundTrip -fuzztime 10s ./internal/wal/
	$(GO) test -run xxx -fuzz FuzzAnalyze -fuzztime 10s ./internal/wal/
	$(GO) test -run xxx -fuzz FuzzCodecRoundTrip -fuzztime 10s ./internal/transport/
	$(GO) test -race -count 1 -run 'TestChaosSoakDeterministic' -v .

# Reconfiguration gate: the epoch-fencing/joint-transition unit suite,
# the membership-churn chaos soaks (three online reconfigurations —
# add, add-witness, remove+reweight — racing the fault schedule, with
# a fenced stale-client probe after every switch), and the churn
# determinism replay. Failing soak seeds replay with -chaos.seed=N.
reconfig:
	$(GO) test -race -count 1 ./internal/reconfig/
	$(GO) test -race -count 1 -run 'TestChaosSoakChurn|TestChaosChurnDeterministic' -v .

# Transport + quorum benchmarks, recorded machine-readably: runs the
# wire-codec and quorum-round suite with -benchmem and rewrites the
# BENCH_transport.json ledger (schema: bench/ns_op/bytes_op/allocs_op/
# date/git_rev per entry; see EXPERIMENTS.md for methodology).
TRANSPORT_BENCH = 'BenchmarkTCP|BenchmarkWire'
bench:
	$(GO) test -run xxx -bench $(TRANSPORT_BENCH) -benchmem -benchtime 2s \
		./internal/transport | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_transport.json

# Shard-scaling measurement, recorded machine-readably: the repdir-sim
# shard experiment (aggregate write throughput at 1/2/4/8 shards under a
# serialized per-replica service time) rewrites the BENCH_shard.json
# ledger. The 4-shard point is expected to stay >= 2x the 1-shard point.
benchshard:
	$(GO) run ./cmd/repdir-sim -experiment shard | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -out BENCH_shard.json

# Open-loop workload measurement, recorded machine-readably: a
# million-key zipfian universe over four sticky 3-2-2 shards, driven
# through the standard mixes (read-heavy, update-heavy, scan-heavy,
# read-heavy through client sessions) with coordinated-omission-safe
# latency capture. Rewrites the BENCH_workload.json ledger, whose
# entries carry response-time quantiles and the SLO verdict next to the
# usual ns/op. The run itself fails if any mix misses its SLO.
# (The run goes to a temp file first, not a pipe: /bin/sh reports only
# the last pipeline stage's status, which would let an SLO failure slip
# past make.)
benchworkload:
	$(GO) run ./cmd/repdir-sim -experiment workload -keys 1000000 > /tmp/workload_bench.out
	cat /tmp/workload_bench.out
	$(GO) run ./cmd/benchjson -out BENCH_workload.json < /tmp/workload_bench.out

# Workload smoke gate: a scaled-down open-loop run (20k keys, 1s mixes)
# whose SLO verdicts still gate — shedding or a blown tail fails `make
# check` — plus schema validation of the emitted ledger lines.
workload:
	$(GO) run ./cmd/repdir-sim -experiment workload -keys 20000 -rate 2000 -duration 1s > /tmp/workload_smoke.out
	$(GO) run ./cmd/benchjson -out /tmp/BENCH_workload_smoke.json < /tmp/workload_smoke.out
	$(GO) run ./cmd/benchjson -validate /tmp/BENCH_workload_smoke.json

# Overload curve, recorded machine-readably: the repdir-sim overload
# experiment (a TCP 3-2-2 suite with the full protection stack —
# deadline propagation, CoDel admission, retry budgets, hedged reads —
# driven at 0.5/1/1.5/2x its calibrated capacity) rewrites the
# BENCH_overload.json ledger. The run fails unless goodput at 2x stays
# within 20% of peak with a bounded p999 — degradation, not collapse.
benchoverload:
	$(GO) run ./cmd/repdir-sim -experiment overload > /tmp/overload_bench.out
	cat /tmp/overload_bench.out
	$(GO) run ./cmd/benchjson -out BENCH_overload.json < /tmp/overload_bench.out

# Overload smoke gate: the same curve at full length (1s points proved
# too noisy to gate on — a bad patch in one window flips the verdict).
# The pass verdict gates — a goodput collapse or unbounded tail past
# saturation fails `make check` — and the ledger lines are
# schema-checked.
overload:
	$(GO) run ./cmd/repdir-sim -experiment overload > /tmp/overload_smoke.out
	cat /tmp/overload_smoke.out
	$(GO) run ./cmd/benchjson -out /tmp/BENCH_overload_smoke.json < /tmp/overload_smoke.out
	$(GO) run ./cmd/benchjson -validate /tmp/BENCH_overload_smoke.json

# Focused race pass over the overload-protection stack and the release
# rounds nobody waits for: admission control, deadline propagation,
# retry budgets, hedged reads, and a read-only transaction's release
# landing in `txn` while its suite or router runs other operations are
# the code paths densest in shared atomics and concurrent teardown, so
# they get an extra -count=2 run beyond the suite-wide `race` target.
raceoverload:
	$(GO) test -race -count 2 ./internal/transport/ ./internal/core/ ./internal/shard/ ./internal/txn/

# Ledger regression diff: re-measures the overload curve and compares it
# against the committed BENCH_overload.json, failing on ns/op, quantile,
# or goodput regressions beyond tolerance (or an SLO verdict flipping to
# fail). Tolerance is 1.0 (2x) because the latency histogram's buckets
# are powers of two: one bucket of jitter doubles a quantile, so a
# tighter tolerance would page on noise. A real collapse blows through
# 2x easily — that is what the mode exists to catch.
benchdiff:
	$(GO) run ./cmd/repdir-sim -experiment overload > /tmp/overload_diff.out
	$(GO) run ./cmd/benchjson -out /tmp/BENCH_overload_new.json < /tmp/overload_diff.out
	$(GO) run ./cmd/benchjson -diff -tolerance 1.0 BENCH_overload.json /tmp/BENCH_overload_new.json

# CI smoke for the benchmark plumbing: same benchmarks at -benchtime=10x
# (numbers meaningless, schema real), written to a scratch ledger and
# schema-validated. Never gates on the measured values.
benchsmoke:
	$(GO) test -run xxx -bench $(TRANSPORT_BENCH) -benchmem -benchtime 10x \
		./internal/transport | $(GO) run ./cmd/benchjson -out /tmp/BENCH_smoke.json
	$(GO) run ./cmd/benchjson -validate /tmp/BENCH_smoke.json
	$(GO) run ./cmd/benchjson -validate BENCH_transport.json
	$(GO) run ./cmd/benchjson -validate BENCH_shard.json
	$(GO) run ./cmd/benchjson -validate BENCH_workload.json
	$(GO) run ./cmd/benchjson -validate BENCH_overload.json

# The repository benchmark (BENCHMARK.json, bench/) is a module of its
# own, so `go vet ./...` and `go test ./...` at the root do not see it:
# vet it and run its tests (generator, statistics, manifest agreement,
# the transparent wrappers) here. The benchmark itself is run with
# `bash bench/run.sh`; see bench/README.md.
benchtest:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Every benchmark in the repo (paper figures included), human-readable.
benchall:
	$(GO) test -run xxx -bench . -benchtime 1s ./...
