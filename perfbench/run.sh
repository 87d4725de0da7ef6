#!/usr/bin/env bash
# Builds perfbench from source in this checkout and runs it with the given
# arguments (see main.go). The build cache and binary live in .bench_build,
# so nothing is read from or written to outside the checkout beyond the Go
# toolchain itself.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOENV=off
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
