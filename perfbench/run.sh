#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload serve-mlp --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Every file the Go toolchain and the
# benchmark write goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
