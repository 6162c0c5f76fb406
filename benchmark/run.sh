#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds mviewload from source
# with the toolchain's cache and temp files kept inside the checkout
# (.bench_build/), then runs one workload:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# mviewload itself builds cmd/mviewd and runs it as a child process.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -C benchmark -o "$build/mviewload" ./cmd/mviewload
exec "$build/mviewload" run "$@"
