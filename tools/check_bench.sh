#!/usr/bin/env bash
# Bench regression gate: runs the benches that have committed baseline
# JSONs (BENCH_storage.json, BENCH_posting_blocks.json, BENCH_router.json)
# and fails when any `speedup` or `*ms_per_query` field regresses by more
# than the tolerance (default 20%) against the baseline — lower speedup or
# higher query time.
#
# Wall-clock numbers on a shared box are noisy, so each bench runs
# SEQDET_BENCH_RUNS times (default 3) and the most favorable value per
# field (min ms, max speedup) is compared: transient scheduler noise should
# not fail the gate, while a real regression shows up in every run. The
# baselines are absolute times from the box that recorded them: each bench
# stamps its output with hardware_concurrency, cpu_model and commit, and
# the gate prints the fresh stamp next to the baseline's so a miss on
# other hardware reads as such.
#
# Usage: tools/check_bench.sh [build-dir]     (default: build)
# Env:   SEQDET_BENCH_RUNS       repetitions of each bench binary (3)
#        SEQDET_BENCH_TOLERANCE  allowed fractional regression (0.20)
#        SEQDET_BENCH_COMMIT     commit stamped into fresh outputs
#                                (default: git rev-parse --short HEAD)
set -euo pipefail

REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${REPO_DIR}/build}"
RUNS="${SEQDET_BENCH_RUNS:-3}"
TOLERANCE="${SEQDET_BENCH_TOLERANCE:-0.20}"
if [[ -z "${SEQDET_BENCH_COMMIT:-}" ]]; then
  SEQDET_BENCH_COMMIT="$(git -C "${REPO_DIR}" rev-parse --short HEAD \
    2>/dev/null || echo unknown)"
fi
export SEQDET_BENCH_COMMIT

if ! command -v python3 >/dev/null 2>&1; then
  echo "check_bench: python3 not found; skipping bench gate" >&2
  exit 0
fi

if [[ ! -d "${BUILD_DIR}" ]]; then
  echo "=== BENCH: configure (${BUILD_DIR}) ==="
  cmake -B "${BUILD_DIR}" -S "${REPO_DIR}"
fi
echo "=== BENCH: build bench binaries ==="
cmake --build "${BUILD_DIR}" -j"$(nproc)" \
  --target bench_storage bench_posting_blocks bench_router

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

declare -A BASELINES=(
  [storage]="${REPO_DIR}/BENCH_storage.json"
  [posting_blocks]="${REPO_DIR}/BENCH_posting_blocks.json"
  [router]="${REPO_DIR}/BENCH_router.json"
)
declare -A BINARIES=(
  [storage]="${BUILD_DIR}/bench/bench_storage"
  [posting_blocks]="${BUILD_DIR}/bench/bench_posting_blocks"
  [router]="${BUILD_DIR}/bench/bench_router"
)

status=0
for bench in storage posting_blocks router; do
  baseline="${BASELINES[$bench]}"
  binary="${BINARIES[$bench]}"
  if [[ ! -f "${baseline}" ]]; then
    echo "check_bench: no baseline ${baseline}; skipping ${bench}" >&2
    continue
  fi
  fresh=()
  for run in $(seq 1 "${RUNS}"); do
    out="${TMP_DIR}/${bench}_${run}.json"
    echo "=== BENCH: ${bench} run ${run}/${RUNS} ==="
    "${binary}" --out="${out}" >/dev/null
    fresh+=("${out}")
  done
  if ! python3 - "${baseline}" "${TOLERANCE}" "${fresh[@]}" <<'PY'
import json
import sys

baseline_path, tolerance, run_paths = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
baseline = json.load(open(baseline_path))
runs = [json.load(open(p)) for p in run_paths]


def stamp(result):
    if "cpu_model" not in result:
        return "unstamped"
    return (f"{result.get('hardware_concurrency', '?')} threads, "
            f"{result['cpu_model']}, commit {result.get('commit', '?')}")


print(f"  baseline: {stamp(baseline)}")
print(f"  fresh:    {stamp(runs[0])}")


def walk(node, path):
    """Yields (path, key, value) for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from walk(value, path + [key])
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from walk(value, path + [i])
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


def lookup(node, path):
    for step in path:
        try:
            node = node[step]
        except (KeyError, IndexError, TypeError):
            return None
    return node


failures = []
for path, base_value in walk(baseline, []):
    key = str(path[-1])
    is_speedup = "speedup" in key
    is_ms = key.endswith("ms_per_query")
    if not (is_speedup or is_ms):
        continue
    values = [v for v in (lookup(r, path) for r in runs) if v is not None]
    if not values:
        failures.append(f"{'.'.join(map(str, path))}: missing from fresh run")
        continue
    # Best across runs: scheduler noise only ever makes a run look worse.
    best = max(values) if is_speedup else min(values)
    name = ".".join(map(str, path))
    if is_speedup and best < base_value * (1 - tolerance):
        failures.append(
            f"{name}: speedup {best:.3f} < baseline {base_value:.3f} "
            f"- {tolerance:.0%}")
    elif is_ms and best > base_value * (1 + tolerance):
        failures.append(
            f"{name}: {best:.4f} ms > baseline {base_value:.4f} "
            f"+ {tolerance:.0%}")
    else:
        print(f"  ok {name}: baseline {base_value:.4f}, best {best:.4f}")
if failures:
    print(f"{baseline_path}: {len(failures)} regression(s)", file=sys.stderr)
    for f in failures:
        print(f"  REGRESSION {f}", file=sys.stderr)
    sys.exit(1)
PY
  then
    status=1
  fi
done

if [[ "${status}" != "0" ]]; then
  echo "=== bench regression gate FAILED ===" >&2
  exit 1
fi
echo "=== bench regression gate clean ==="
