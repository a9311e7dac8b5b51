#!/bin/sh
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   sh _benchmark/run.sh --workload fanout --seed 1 --seconds 28 --trace 0
#
# It builds the benchmark from source and runs it. Everything the build
# writes — Go's build cache, its temporary files, the binary — and everything
# a run writes (trace.json, results.json) stays under .bench_build/ in the
# checkout, which .gitignore names.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C _benchmark -o "$build/ncbenchmark" .
exec "$build/ncbenchmark" "$@"
