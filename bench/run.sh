#!/usr/bin/env bash
# Entry point of the benchmark (the "command" of BENCHMARK.json): builds
# bench/ from source into .bench_build/ at the checkout root and runs it
# there. The Go build cache, temporary files and everything the benchmark
# writes stay under .bench_build/, so a run touches nothing outside the
# checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/trinit-bench" .)
cd "$root"
exec "$build/trinit-bench" "$@"
