#!/usr/bin/env bash
# The benchmark's one command: builds benchmark/ from source into
# .bench_build/ of the checkout and runs it with the arguments given, e.g.
#
#   bash benchmark/run.sh --workload cold --seed 5 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# journals, span files) stays inside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export TMPDIR=$build/tmp

go -C "$root/benchmark" build -o "$build/nvobench" .
cd "$root"
exec "$build/nvobench" "$@"
