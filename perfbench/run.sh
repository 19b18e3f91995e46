#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload regions --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build and run artifact (Go build
# cache, temp files, the binary, span dumps) stays under .bench_build in
# the current directory, so the run reads and writes nothing outside it.
# The benchmark module replaces repro with the parent directory; without
# the repository around it the build fails and this script exits non-zero
# before any result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
