#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash _perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# goes under .bench_build/ in the current directory: the Go build cache and
# temporary files included.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
