#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given:
#
#   bash bench/run.sh --workload lan-point --seed 1 --seconds 15 --trace 0
#
# Everything the build writes goes under .bench_build/ at the root of the
# checkout: the binary, Go's build cache and temporary files, and the
# counters the go command keeps in the user's configuration directory.
# After the first build the compile step is a cache hit and costs well
# under a second.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
