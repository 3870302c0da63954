#!/usr/bin/env bash
# Builds the benchmark from source (build cache and binary under
# .bench_build/ at the root of the checkout) and runs it from that root with
# the given arguments.
set -euo pipefail
cd "$(dirname "$0")"
root="$(cd ../.. && pwd)"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -o "$root/.bench_build/e2e" .
cd "$root"
exec .bench_build/e2e "$@"
