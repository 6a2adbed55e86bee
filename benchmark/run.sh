#!/usr/bin/env bash
# Entry point for the benchmark driver (see BENCHMARK.json): builds the
# benchmark from source into .bench_build/ inside the checkout, with the Go
# build cache kept there too so nothing is written outside the checkout,
# then runs it with the driver's arguments. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
