#!/usr/bin/env bash
# BENCHMARK.json's command: build the bench from source into
# .bench_build at the root of the checkout, then run it from that root
# with the caller's arguments. Every Go cache is kept inside
# .bench_build too, so a run reads and writes only inside its checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
