#!/usr/bin/env bash
# Builds the sketchd benchmark from this checkout's sources and runs it.
# Run from the repository root; arguments pass through, e.g.
#
#   bash sketchbench/run.sh --workload bulk --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, per-run data directories
# (removed when the run ends) and traced runs' span dumps.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/sketchbench" && go build -o "$out/sketchbench" .)
exec "$out/sketchbench" --work "$out" "$@"
