#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#   bash bench/run.sh -cal-ref-ms 2.9 -workload node-grid -seed 1 -seconds 20 -trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the repository root, and the go command is
# kept offline.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C bench build -o "$out/faasmem-bench" .
exec "$out/faasmem-bench" "$@"
