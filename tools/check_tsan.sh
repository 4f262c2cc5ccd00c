#!/usr/bin/env bash
# Builds the concurrency-sensitive test binaries under ThreadSanitizer and
# runs them. Exercises the storage engine, the index (including the
# versioned posting cache, its Update-vs-DetectBatch race test, and the
# background maintenance service), the query processor, the
# writer/reader/fold stress test, the worker-pool HTTP serving stress
# test, and the shard router chaos stress test
# (SEQDET_STRESS_SECONDS scales the stress runs).
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${REPO_DIR}/build-tsan}"
TESTS=(sync_test storage_test storage_param_test index_test
       posting_cache_test query_test maintenance_stress_test server_test
       server_stress_test router_stress_test)

cmake -B "${BUILD_DIR}" -S "${REPO_DIR}" -DSEQDET_SANITIZE=thread
cmake --build "${BUILD_DIR}" -j"$(nproc)" --target "${TESTS[@]}" \
      differential_test

# halt_on_error makes any report fail the run instead of just logging it.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
for t in "${TESTS[@]}"; do
  echo "=== TSAN: ${t} ==="
  "${BUILD_DIR}/tests/${t}"
done

# The extended-pattern differential axis under TSan: its HTTP case runs
# the extended join/closure path on the server's worker threads over an
# index the test thread built and folded. Reduced pattern count — TSan's
# ~10x slowdown makes the full default prohibitive, and the race surface
# does not grow with more patterns.
echo "=== TSAN: differential_test (extended axis) ==="
SEQDET_DIFF_PATTERNS="${SEQDET_DIFF_PATTERNS:-100}" \
  "${BUILD_DIR}/tests/differential_test" --gtest_filter='*Extended*'
echo "=== TSAN: all clean ==="
