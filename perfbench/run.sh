#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root, for example:
#
#   bash perfbench/run.sh --workload classify-bert --seed 1 --seconds 30 --trace 0
#
# Every build and cache file goes under .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --spans "$build/spans" "$@"
