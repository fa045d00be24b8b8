#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload paper-suite --seed 42 --seconds 10 --trace 0
#
# The build cache, Go's configuration and the binary stay under
# .bench_build/ in the repository root.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0

go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
