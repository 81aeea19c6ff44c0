#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build writes (Go build cache, temporary
# files, the binary) goes under .bench_build/ in the checkout; nothing is
# downloaded.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C benchmark -o "$build/onoffchain-benchmark" .
exec "$build/onoffchain-benchmark" "$@"
