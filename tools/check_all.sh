#!/usr/bin/env bash
# Full sanitizer sweep: builds the whole test suite under
# AddressSanitizer + UndefinedBehaviorSanitizer and runs ctest, then
# delegates to check_tsan.sh for the ThreadSanitizer pass over the
# concurrency-sensitive binaries.
#
# The static gate (tools/check_static.sh: Clang thread-safety build,
# clang-tidy, negative-compile probes, raw-primitive grep) runs first; its
# Clang-only steps self-skip with a loud warning when the tools are absent.
#
# Usage: tools/check_all.sh [--static] [asan-build-dir [tsan-build-dir]]
#   (defaults: build-asan, build-tsan)
#   --static   run only the fast pre-merge slice: the static gate
#              (check_static.sh, which includes the negative probes and
#              seqdet-lint) plus a plain build with warnings as errors
#              (-DSEQDET_WERROR=ON), the tier-1 ctest labels
#              and the end-to-end benchmark's build and self-test
#              (perfbench/run.py --selftest, which compiles ../src on its
#              own, so a src/ API change cannot break it unseen), then
#              exit — no sanitizer sweeps, no smoke.
# Set SEQDET_SKIP_TSAN=1 to run only the ASan/UBSan pass.
# Set SEQDET_SKIP_STATIC=1 to skip the static gate.
# Set SEQDET_RUN_BENCH=1 to also run the bench regression gate
# (tools/check_bench.sh against the committed BENCH_*.json baselines);
# off by default because wall-clock comparisons need a quiet machine.
set -euo pipefail

REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
STATIC_ONLY=0
if [[ "${1:-}" == "--static" ]]; then
  STATIC_ONLY=1
  shift
fi
ASAN_DIR="${1:-${REPO_DIR}/build-asan}"
TSAN_DIR="${2:-${REPO_DIR}/build-tsan}"

if [[ "${SEQDET_SKIP_STATIC:-0}" != "1" ]]; then
  echo "=== STATIC: check_static.sh ==="
  "${REPO_DIR}/tools/check_static.sh"
fi

if [[ "${STATIC_ONLY}" == "1" ]]; then
  PLAIN_DIR="${REPO_DIR}/build"
  echo "=== STATIC-ONLY: plain build + tier-1 ctest (${PLAIN_DIR}) ==="
  cmake -B "${PLAIN_DIR}" -S "${REPO_DIR}" -DSEQDET_WERROR=ON
  cmake --build "${PLAIN_DIR}" -j"$(nproc)"
  ctest --test-dir "${PLAIN_DIR}" --output-on-failure -j"$(nproc)" \
      -L tier1
  echo "=== STATIC-ONLY: perfbench build + self-test ==="
  (cd "${REPO_DIR}" && python3 perfbench/run.py --selftest)
  echo "=== check_all --static: all clean ==="
  exit 0
fi

echo "=== ASAN/UBSAN: configure + build (${ASAN_DIR}) ==="
cmake -B "${ASAN_DIR}" -S "${REPO_DIR}" -DSEQDET_SANITIZE=address,undefined
cmake --build "${ASAN_DIR}" -j"$(nproc)"

# Fail on any UBSan report (by default UBSan only logs and continues);
# ASan aborts on error already.
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
echo "=== ASAN/UBSAN: ctest ==="
ctest --test-dir "${ASAN_DIR}" --output-on-failure -j"$(nproc)"

# End-to-end smoke of the extended query grammar and the compliance
# templates through the real CLI (under ASan): generate -> index -> query.
echo "=== SMOKE: compliance templates via seqdet query ==="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
SEQDET="${ASAN_DIR}/tools/seqdet"
"${SEQDET}" generate --dataset=max_100 --out="${SMOKE_DIR}/smoke.csv"
"${SEQDET}" index --db="${SMOKE_DIR}/db" --log="${SMOKE_DIR}/smoke.csv"
"${SEQDET}" query --db="${SMOKE_DIR}/db" --q="response(act_0, act_1)" \
    --limit=5 > /dev/null
"${SEQDET}" query --db="${SMOKE_DIR}/db" --q="precedence(act_0, act_1)" \
    --limit=5 > /dev/null
"${SEQDET}" query --db="${SMOKE_DIR}/db" --q="absence(act_2)" \
    --limit=5 > /dev/null
"${SEQDET}" query --db="${SMOKE_DIR}/db" \
    --q="act_0 (act_1|act_2)+ !act_3 act_4 within 1h" --limit=5 > /dev/null

# A numeric flag that is present but malformed, or out of range for its
# type, must exit 2 naming the flag instead of running with the default
# (the timeout catches a `serve` that starts anyway).
echo "=== SMOKE: malformed numeric flags ==="
expect_flag_error() {
  local flag="$1"
  shift
  local rc=0
  timeout 20 "${SEQDET}" "$@" > /dev/null 2> "${SMOKE_DIR}/flag.err" || rc=$?
  if [[ "${rc}" != "2" ]] || ! grep -q -- "--${flag}=" "${SMOKE_DIR}/flag.err"
  then
    echo "flag smoke: 'seqdet $*' exited ${rc}, want 2 naming --${flag}" >&2
    cat "${SMOKE_DIR}/flag.err" >&2
    exit 1
  fi
}
expect_flag_error port serve --db="${SMOKE_DIR}/db" --port=80x
expect_flag_error port serve --db="${SMOKE_DIR}/db" --port=70000
expect_flag_error limit detect --db="${SMOKE_DIR}/db" --pattern=act_0,act_1 \
    --limit=-1
expect_flag_error max-gap detect --db="${SMOKE_DIR}/db" \
    --pattern=act_0,act_1 --max-gap=5x
expect_flag_error topk continue --db="${SMOKE_DIR}/db" --pattern=act_0 \
    --mode=hybrid --topk=1.5
expect_flag_error scale generate --dataset=max_100 --scale=abc \
    --out="${SMOKE_DIR}/unused.csv"

# Sharded serving smoke (under ASan): shard-split the same log, serve the
# two shards, front them with the router, and byte-compare routed /detect
# and /continue (accurate and hybrid) answers against the single unsharded
# server.
echo "=== SMOKE: sharded scatter-gather router ==="
"${SEQDET}" shard-split --log="${SMOKE_DIR}/smoke.csv" --shards=2 \
    --out="${SMOKE_DIR}/shards"
SMOKE_PIDS=()
cleanup_smoke_pids() {
  for pid in "${SMOKE_PIDS[@]:-}"; do
    kill "${pid}" 2>/dev/null || true
  done
  for pid in "${SMOKE_PIDS[@]:-}"; do
    wait "${pid}" 2>/dev/null || true
  done
}
trap 'cleanup_smoke_pids; rm -rf "${SMOKE_DIR}"' EXIT
PORT_BASE=$((18400 + RANDOM % 1000))
"${SEQDET}" serve --db="${SMOKE_DIR}/db" --port=$((PORT_BASE)) \
    > /dev/null & SMOKE_PIDS+=($!)
"${SEQDET}" serve --db="${SMOKE_DIR}/shards/shard-000" \
    --port=$((PORT_BASE + 1)) > /dev/null & SMOKE_PIDS+=($!)
"${SEQDET}" serve --db="${SMOKE_DIR}/shards/shard-001" \
    --port=$((PORT_BASE + 2)) > /dev/null & SMOKE_PIDS+=($!)
"${SEQDET}" route --shards=$((PORT_BASE + 1)),$((PORT_BASE + 2)) \
    --port=$((PORT_BASE + 3)) > /dev/null & SMOKE_PIDS+=($!)
for attempt in $(seq 1 50); do
  if "${SEQDET}" query --port=$((PORT_BASE + 3)) --q="act_0 -> act_1" \
      > /dev/null 2>&1; then
    break
  fi
  if [[ "${attempt}" == "50" ]]; then
    echo "router smoke: cluster never became ready" >&2
    exit 1
  fi
  sleep 0.2
done
for q in "act_0 -> act_1" "act_1 -> act_2 -> act_0" \
         "act_0 (act_1|act_2)+ act_3" "response(act_0, act_1)" \
         "absence(act_2)"; do
  "${SEQDET}" query --port=$((PORT_BASE)) --q="${q}" \
      > "${SMOKE_DIR}/single.json"
  "${SEQDET}" query --port=$((PORT_BASE + 3)) --q="${q}" \
      > "${SMOKE_DIR}/routed.json"
  if ! cmp -s "${SMOKE_DIR}/single.json" "${SMOKE_DIR}/routed.json"; then
    echo "router smoke: routed response diverged for '${q}'" >&2
    diff "${SMOKE_DIR}/single.json" "${SMOKE_DIR}/routed.json" >&2 || true
    exit 1
  fi
done
for pattern in "act_0" "act_0,act_1" "act_0,act_1,act_2" "act_1,act_2,act_0"; do
  for mode in accurate hybrid; do
    "${SEQDET}" continue --port=$((PORT_BASE)) --pattern="${pattern}" \
        --mode="${mode}" --topk=3 > "${SMOKE_DIR}/single.json"
    "${SEQDET}" continue --port=$((PORT_BASE + 3)) --pattern="${pattern}" \
        --mode="${mode}" --topk=3 > "${SMOKE_DIR}/routed.json"
    if ! cmp -s "${SMOKE_DIR}/single.json" "${SMOKE_DIR}/routed.json"; then
      echo "router smoke: routed /continue diverged for '${pattern}'" \
          "(${mode})" >&2
      diff "${SMOKE_DIR}/single.json" "${SMOKE_DIR}/routed.json" >&2 || true
      exit 1
    fi
  done
done
cleanup_smoke_pids
SMOKE_PIDS=()
echo "=== SMOKE: clean ==="

if [[ "${SEQDET_SKIP_TSAN:-0}" != "1" ]]; then
  "${REPO_DIR}/tools/check_tsan.sh" "${TSAN_DIR}"
fi

if [[ "${SEQDET_RUN_BENCH:-0}" == "1" ]]; then
  echo "=== BENCH: check_bench.sh ==="
  "${REPO_DIR}/tools/check_bench.sh"
fi
echo "=== all sanitizer checks clean ==="
