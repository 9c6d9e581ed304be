#!/usr/bin/env bash
#===- tools/run_benches.sh - hot-path bench runner -----------------------===#
#
# Builds the tree and regenerates the machine-readable bench reports:
#
#   BENCH_hotpath.json   — micro_allocators: per-op malloc/free costs,
#                          each heap's ratio to the glibc baseline, and
#                          the scalar vs dispatched canary kernels
#                          (schema: ROADMAP.md)
#   BENCH_exchange.json  — exp_collaborative: patch-exchange ingest
#                          throughput and ImageBundle size ratio
#                          (schema: ROADMAP.md)
#   BENCH_diagnosis.json — exp_diagnosis: evidence-path throughput per
#                          stage (capture MB/s, view build, §4
#                          isolation, server ingest — schema:
#                          ROADMAP.md)
#   BENCH_fig7.json      — fig7_overhead: normalized whole-program
#                          overheads vs the baseline allocator (--full;
#                          CI runs it as a smoke step)
#
# Usage:
#   tools/run_benches.sh [--smoke] [--full]
#
#   --smoke   shrunk iteration counts (CI smoke run)
#   --full    also run the fig7 whole-program overhead suite (slower)
#
# The reports are written into the repository root, replacing the
# committed captures.  A bench whose own check fails (isolation that
# derives no patches, the Figure 7 shape) exits nonzero and stops the
# script.
#
# Environment:
#   BUILD_DIR   build directory (default: build)
#
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
SMOKE=""
FULL=0
for Arg in "$@"; do
  case "$Arg" in
    --smoke) SMOKE="--smoke" ;;
    --full) FULL=1 ;;
    *) echo "usage: tools/run_benches.sh [--smoke] [--full]" >&2; exit 2 ;;
  esac
done

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j --target micro_allocators fig7_overhead \
  exp_collaborative exp_diagnosis >/dev/null

"$BUILD_DIR"/bench/micro_allocators $SMOKE --json BENCH_hotpath.json
"$BUILD_DIR"/bench/exp_collaborative $SMOKE --json BENCH_exchange.json
"$BUILD_DIR"/bench/exp_diagnosis $SMOKE --json BENCH_diagnosis.json

if [ "$FULL" = 1 ]; then
  "$BUILD_DIR"/bench/fig7_overhead --json BENCH_fig7.json
fi
