#!/usr/bin/env bash
# Builds gsperf from this checkout and runs one workload of the benchmark:
#
#   bash cmd/gsperf/bench.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root: gsperf is a package of the repository's
# module, so the build fails anywhere else. The Go build cache, temporary
# files and the traced run's profiles stay under .bench_build. The last
# line of standard output is the result object; with --trace 1 it holds
# the per-layer metrics instead of the end-to-end ones.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/gsperf" ./cmd/gsperf

args=(-workers 1)
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) args+=(-workloads "$2") ;;
	--trace) if [ "$2" = 1 ]; then args+=(-trace "$build/trace"); fi ;;
	*) args+=("$1" "$2") ;;
	esac
	shift 2
done
exec "$build/gsperf" "${args[@]}"
