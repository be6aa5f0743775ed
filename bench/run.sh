#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, keeping
# every build product (Go build cache included) inside <checkout>/.bench_build
# so a run reads and writes nothing outside the checkout.
#
#   bash bench/run.sh --workload live_orbit_pipe --seed 1 --seconds 12 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local
go -C "$here" build -buildvcs=false -o "$build/vizperf" .
cd "$root"
exec "$build/vizperf" "$@"
