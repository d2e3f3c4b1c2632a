#!/usr/bin/env bash
# Builds tyrbench from this checkout's source and runs it with the given
# flags, from the checkout root:
#
#   bash bench/run.sh -workload serve-tiny-hot -seed 1 -seconds 12 -trace 0
#
# Every build product, the Go build cache and temporary files stay under
# .bench_build/ in the checkout, and the Go toolchain is kept offline.
set -euo pipefail
root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$work/tyrbench" ./tyrbench
exec "$work/tyrbench" "$@"
