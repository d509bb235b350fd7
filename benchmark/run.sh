#!/usr/bin/env bash
# The benchmark's build file and entry point, as BENCHMARK.json names it:
# builds ./benchmark from source into .bench_build/ at the root of the
# checkout, then runs it with the arguments given. Build cache and scratch
# space are kept inside the checkout too, so nothing is read or written
# outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/diffuse-benchmark" ./benchmark
exec "$build/diffuse-benchmark" "$@"
