#!/usr/bin/env bash
# Coverage lane workload: run, against a --coverage build, what the CI gates
# run — the test suite, the chaos_run lanes of the tests, determinism,
# run-reports and recovery-soak jobs, qlint, one qcongest_cli report, a
# perf_gate --report check, and the service, cache and crash smokes — so
# that the .gcda counters say which src/ and tools/ lines some gate
# executes. Summarize afterwards with scripts/coverage_summary.py.
#
# perf_smoke.sh and parallel_sweep_gate.sh are left out: their wall-clock
# bounds fail in an instrumented -O0 build, and they reach almost no line
# the rest of the lane misses.
#
# Usage: scripts/coverage_lane.sh [build_dir]   (default build-coverage,
#        configured with `cmake --preset coverage`)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build-coverage}
CHAOS_RUN="${BUILD_DIR}/tools/chaos_run"

OUT_DIR=$(mktemp -d)
trap 'rm -rf "${OUT_DIR}"' EXIT

# Start from zero counters so the summary reflects this run alone.
find "${BUILD_DIR}" -name '*.gcda' -delete

echo "== ctest =="
(cd "${BUILD_DIR}" && ctest --output-on-failure -j "$(nproc)")

echo "== chaos_run lanes =="
"${CHAOS_RUN}" --nodes 15 --trials 5
"${CHAOS_RUN}" --graph path --nodes 128 --transport reliable --trials 3
"${CHAOS_RUN}" --audit-determinism --graph tree --nodes 15
"${CHAOS_RUN}" --audit-determinism --graph random --nodes 12 --seed 7
"${CHAOS_RUN}" --audit-determinism --graph path --nodes 64
"${CHAOS_RUN}" --audit-determinism --graph grid --nodes 16 --transport direct
"${CHAOS_RUN}" --audit-determinism --graph random --nodes 12 --threads 8 --transport direct
"${CHAOS_RUN}" --audit-determinism --graph tree --nodes 15 --threads 8
"${CHAOS_RUN}" --verify --nodes 10 --trials 3
for threads in 1 8; do
  "${CHAOS_RUN}" --nodes 10 --trials 3 --threads "${threads}" \
    --report "${OUT_DIR}/report_t${threads}.json"
  "${CHAOS_RUN}" --nodes 15 --amnesia --recover --verify --threads "${threads}" \
    --report "${OUT_DIR}/recover_t${threads}.json"
  "${CHAOS_RUN}" --nodes 15 --amnesia --verify --threads "${threads}" \
    --report "${OUT_DIR}/norecover_t${threads}.json"
done
"${CHAOS_RUN}" --graph random --nodes 12 --seed 7 --amnesia --recover --verify

echo "== qcongest_cli report, perf_gate --report =="
"${BUILD_DIR}/tools/qcongest_cli" dj --nodes 16 --k 64 --report "${OUT_DIR}/report_cli.json"
"${BUILD_DIR}/tools/perf_gate" --report "${OUT_DIR}/report_t1.json" "${OUT_DIR}/report_t8.json"

echo "== qlint =="
"${BUILD_DIR}/tools/qlint" --root src --root tools --root bench --root tests \
  --allow tools/qlint_allow.txt --sarif "${OUT_DIR}/qlint.sarif"

echo "== smokes =="
scripts/service_smoke.sh "${BUILD_DIR}"
scripts/cache_smoke.sh "${BUILD_DIR}"
scripts/crash_smoke.sh "${BUILD_DIR}"
