#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload:
#
#   bash gistbench-e2e/run.sh --workload read_cached --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds, caches or writes
# stays under .bench_build/ in that root; the data directories it creates
# there are removed before it exits. Without the engine's sources beside it
# (../go.mod) the build fails and the script exits non-zero without a result.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$bench_dir/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=

(cd "$bench_dir" && go build -o "$build/gistbench-e2e" .)
cd "$root"
exec "$build/gistbench-e2e" --data "$build/gistbench-e2e-data" "$@"
