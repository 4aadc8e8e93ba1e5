#!/bin/bash
# The command BENCHMARK.json names: builds the benchmark from source into
# .bench_build/ at the root of the checkout, so that the build cache, the
# linker's scratch space and the binary all stay inside the checkout, then
# runs it with the arguments given.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
cold=0
[ -d "$build/gocache" ] || cold=1
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
cd "$root"
go build -o "$build/bench" ./bench
# A cold build leaves tens of megabytes of dirty pages behind; let the kernel
# write them back before the run rather than during it.
[ "$cold" = 0 ] || sync
exec "$build/bench" "$@"
