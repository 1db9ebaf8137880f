#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload serve-shared --seed 1 --seconds 20 --trace 0
#
# Every build output (binary, Go build cache, toolchain state) stays under
# .bench_build/ in the current directory, and nothing is downloaded.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C bench build -o "$out/palladium-benchmark" .
exec "$out/palladium-benchmark" "$@"
