# Developer entry points. `make check` is the gate CI and pre-commit
# hooks should run: vet + build + full test suite under the race
# detector, plus the deterministic chaos soak.

GO ?= go

.PHONY: check vet build test race benchall benchtest overload raceoverload chaos crash shard reconfig obsdeps seedlines

check: vet obsdeps build race shard crash chaos reconfig overload raceoverload benchtest

# vet also fails on any file gofmt would rewrite, bench/ included.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt would rewrite:"; echo "$$unformatted"; exit 1; \
	fi

# internal/obs must stay stdlib-only: it sits at the bottom of the
# import graph (core and transport import it), so any
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
# every operation recorded with its version in a model.History and each
# key's history checked by its four rules. The members reap the
# transactions they were left holding on one harness clock, which moves
# only between operations, so a failing seed is printed and replays
# with -chaos.seed=N. Set REPDIR_CHAOS_LONG=1 for the long soak
# (20 seeds x 10000 ops). Then the same checker under contention: eight
# clients on eight shared keys while replicas crash and recover, and the
# writes that build on a remembered version instead of reading it
# (racing suites, stale hints). A change that should not alter what
# the soaks do diffs `make seedlines` at its parent and at itself.
chaos:
	$(GO) test -race -count 1 -run 'TestChaosSoak' -v .
	$(GO) test -race -count 3 -run 'TestChaosConcurrentClients' .
	$(GO) test -race -count 3 -run 'TestHintedWritesLinearizePerKey' -v ./internal/core/

# The summary lines of the four single-client soaks, and nothing else:
# each seed's `seed N:` line and each churn run's `events:` line, with
# the test's file:line prefix cut so an edit to chaos_test.go does not
# show, plus any FAIL line. The soaks are deterministic per seed, reaps
# included (reaped= sums the members' rep.Counters.Reaped), so the same
# code prints the same lines. Not part of check.
seedlines:
	@$(GO) test -count 1 -run '^(TestChaosSoak|TestChaosSoakSharded|TestChaosSoakChurn|TestChaosSoakChurnSharded)$$' -v . | \
		grep -Eo '(seed [0-9]+:|events:).*|^(--- )?FAIL.*'

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
# boundary and one flipped bit at every byte of a logged workload's
# fresh log and of the log its checkpoint, after the third commit,
# compacted — damage inside the section either log opens with must be
# refused, and a cut after it recover the state acknowledged last before
# the cut; see DESIGN.md section 11), a power loss at a whole
# suite that keeps only what each log forced (an acknowledged write comes
# back in doubt and resolves to commit; an aborted one stays aborted),
# plus a short chaos soak whose storage phase wipes a minority of WALs
# mid-run and rebuilds them from peers. The soak seed doubles as the
# replay handle on failure. Recovery reads two
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
	$(GO) test -race -count 1 -run 'TestChaosSoakDeterministic|TestPowerLoss' -v .

# Reconfiguration gate: the epoch-fencing/joint-transition unit suite,
# the membership-churn chaos soaks (three online reconfigurations —
# add, add-witness, remove+reweight — racing the fault schedule, with
# a fenced stale-client probe after every switch), and the churn
# determinism replay. Failing soak seeds replay with -chaos.seed=N.
reconfig:
	$(GO) test -race -count 1 ./internal/reconfig/
	$(GO) test -race -count 1 -run 'TestChaosSoakChurn|TestChaosChurnDeterministic' -v .

# Overload gate: a TCP 3-2-2 suite with the full protection stack —
# deadline propagation, CoDel admission, no retry of a refusal, a
# point read's failover to a spare member —
# driven at 0.5/1/1.5/2x its calibrated capacity, at full length (1s
# points proved too noisy to gate on — a bad patch in one window flips
# the verdict). repdir-sim exits non-zero unless goodput at 2x stays
# within 20% of peak with a bounded p999 — degradation, not collapse.
overload:
	$(GO) run ./cmd/repdir-sim -experiment overload

# Focused race pass over the overload-protection stack and the rounds
# nobody waits for: admission control, deadline propagation, and a
# read-only transaction's release or a point write's commit round
# landing in `txn` while its suite or router runs other operations are
# the code paths densest in shared atomics and concurrent teardown, so
# they get an extra -count=2 run beyond the suite-wide `race` target.
# So does a member's reaper, whose timer aborts strays beside its calls.
raceoverload:
	$(GO) test -race -count 2 ./internal/transport/ ./internal/core/ ./internal/shard/ ./internal/txn/ ./internal/rep/

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
