#!/usr/bin/env bash
# Builds the harness from source and runs it from the repo root. Every byte
# the Go toolchain writes (build cache, binaries) stays under .bench_build/
# in the checkout, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod"
(cd "$here" && go build -o "$root/.bench_build/avccbenchmark" .)
cd "$root"
exec "$root/.bench_build/avccbenchmark" "$@"
