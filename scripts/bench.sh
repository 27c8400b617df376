#!/usr/bin/env sh
# Capture a hot-path micro-benchmark snapshot into the next BENCH_<n>.json.
#
# The output file auto-numbers: existing BENCH_<n>.json snapshots are
# scanned and the next free index is used, so successive captures extend
# the perf trajectory without manual bookkeeping. After the capture the
# benchdiff command comparing against the previous snapshot is printed.
#
# Usage (from the repository root):
#   scripts/bench.sh                  # writes the next BENCH_<n>.json, 5 samples
#   OUT=mybench.json scripts/bench.sh # explicit output path (no auto-numbering)
#   COUNT=10 scripts/bench.sh         # more samples per benchmark
#   GOMAXPROCS=1 COUNT=20 scripts/bench.sh  # how the committed snapshots are
#                                     # captured: the harness inherits
#                                     # GOMAXPROCS, and allocs/op are only
#                                     # comparable at the same setting
set -eu
cd "$(dirname "$0")/.."

n=1
while [ -e "BENCH_$n.json" ]; do
  n=$((n + 1))
done
out="${OUT:-BENCH_$n.json}"

go run ./cmd/gtbench -micro -count "${COUNT:-5}" -out "$out"

prev=$((n - 1))
if [ "$prev" -ge 1 ] && [ -e "BENCH_$prev.json" ]; then
  echo ""
  echo "compare against the previous snapshot with:"
  echo "  go run ./scripts/benchdiff BENCH_$prev.json $out"
fi
