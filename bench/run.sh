#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# root of a checkout) and runs it, keeping every build and run output
# under .bench_build/ so nothing outside the checkout is touched.
#
#   bash bench/run.sh --workload colo --seed 1 --seconds 35 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$out/vbench" .
exec "$out/vbench" "$@"
