#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it from the
# checkout root. The binary, the Go build cache and every file the build
# or the run writes stay under .bench_build in the checkout. Arguments
# go to the benchmark, for example
#   bash e2ebench/run.sh --workload orders-large --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh repeat --workload orders-large --runs 10 --seconds 20
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/e2ebench" && go build -o "$build/bin/e2ebench" .)
cd "$root"
exec "$build/bin/e2ebench" "$@"
