#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it with
# the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload plan-random --seed 1 --seconds 25 --trace 0
#
# Every build artefact, the Go build cache included, stays under
# .bench_build/ so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

go -C bench build -o "$out/hiosbench" .
exec "$out/hiosbench" "$@"
