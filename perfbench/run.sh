#!/usr/bin/env bash
# Builds the QFw end-to-end benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload request_floor --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build products, the Go build cache and
# trace files stay under .bench_build/ in the current directory. The run
# environment is pinned here (deterministic tuning and cost model, fault
# injection off, GOMAXPROCS = nproc); the benchmark refuses to run under
# any other setting.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export XDG_CACHE_HOME="$build/cache"
export QFW_TUNE=deterministic QFW_COST=deterministic
unset QFW_FAULTS
export GOMAXPROCS="$(nproc)"
export PERFBENCH_OUT="$build"

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
