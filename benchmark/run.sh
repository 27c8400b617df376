#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of the checkout this script sits in. Everything the build leaves
# behind stays under .bench_build/ there.
#
#   bash benchmark/run.sh --workload train-light --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ]; then
  echo "benchmark/run.sh: no go.mod beside benchmark/: not a checkout of the repository" >&2
  exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/go-cache}"
export GOMODCACHE="${GOMODCACHE:-$build/go-mod}"
export GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
