#!/usr/bin/env bash
# Builds cmd/wearperf from source and runs it with the given arguments,
# for example:
#
#   bash cmd/wearperf/run.sh --workload collect --seed 42 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes —
# build cache, temporary files, the binary — stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f BENCHMARK.json ]]; then
	echo "wearperf: run from the repository root (go.mod and BENCHMARK.json not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go build -buildvcs=false -o "$out/wearperf" ./cmd/wearperf
exec "$out/wearperf" "$@"
