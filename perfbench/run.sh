#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given flags, e.g.
#
#   bash perfbench/run.sh --workload policy_sim --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything the Go toolchain and the
# benchmark write stays under .bench_build/ there.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
