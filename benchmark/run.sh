#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. It pins everything the Go
# toolchain writes (build cache, temp files, the harness binary) under
# .bench_build in the checkout, forbids module and toolchain downloads,
# then builds the harness and hands it the arguments. Running
# `go run ./benchmark ...` by hand does the same with your own cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ]; then
	echo "benchmark: $PWD is not a full checkout (no go.mod); nothing to build" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
