#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload cold-run --seed 1 --seconds 20 --trace 0
#
# The build, the Go caches and everything the run writes stay inside the
# checkout, under .bench_build. The build fails, and so does this script,
# when the repository's sources are not next to the benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/go-tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
