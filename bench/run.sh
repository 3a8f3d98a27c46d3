#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# (binary, Go build cache, temporary files, the go command's own counters
# and env file) stays under .bench_build/ in the checkout, and the benchmark
# itself writes only under bench/out/.
#
#   bash bench/run.sh --workload W --seed S --seconds T --trace 0|1
#   bash bench/run.sh all --out set.json
#   bash bench/run.sh compare A.json B.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/uoibench" .
exec "$build/uoibench" "$@"
