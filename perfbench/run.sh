#!/usr/bin/env bash
# Builds the benchmark and the shipped yapserve daemon from this checkout,
# then runs the benchmark. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# including the Go build cache; nothing is downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
# XDG_CONFIG_HOME keeps the go command's environment file and telemetry
# counters inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"

go build -C perfbench -o "$out/perfbench" .
go build -o "$out/yapserve" ./cmd/yapserve
exec "$out/perfbench" -yapserve "$out/yapserve" -work "$out/work" "$@"
