#!/bin/bash
# The command BENCHMARK.json names. It builds the benchmark (a module of
# its own, in this directory) from the checkout's source and runs it
# with the arguments given. The Go build cache and the binaries stay
# inside the checkout, under .bench_build/, so a run reads and writes
# nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build/bin"
go build -C "$here" -o "$root/.bench_build/bin/benchmark" .
cd "$root"
exec "$root/.bench_build/bin/benchmark" "$@"
