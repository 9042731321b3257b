#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go build cache and
# temp files included, so nothing is written outside the checkout) and
# runs it with the given arguments. BENCHMARK.json names this script as
# the benchmark command; run it from the repository root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of a homesight checkout (go.mod not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
# The go command keeps its build cache, temp files, module cache and
# per-user config (go env file, telemetry counters) under $HOME by
# default; point all of them into the checkout.
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local

go build -o "$build/homebench" ./bench
exec "$build/homebench" "$@"
