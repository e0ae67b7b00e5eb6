#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Run from the repository root: bash bench/run.sh [flags of bench/main.go]
# Everything written — build cache, binary, data directories, traces —
# stays under .bench_build/ and bench/out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/ideabench" .
exec "$build/ideabench" -data-root "$build/data" -out "$root/bench/out" "$@"
