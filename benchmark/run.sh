#!/usr/bin/env bash
# Builds the benchmark from source and runs it. The driver calls
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# from the root of a checkout. This script is the benchmark's build file: the
# package sits in the repository's module, so it needs no go.mod of its own.
# Everything the build and the run write stays inside the checkout: the Go
# build cache and the binary under .bench_build/, trace files and the WAL
# under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$root" -o "$build/dgfbench" ./benchmark
exec "$build/dgfbench" -out "$here/out" "$@"
