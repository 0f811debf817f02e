#!/usr/bin/env bash
# Perf-smoke gate: run a small pinned benchmark subset, dump BENCH_*.json
# (bench/json_main.cpp), and compare against the committed baselines in
# bench/baselines/ with tools/perf_gate. The gate fails on a >25% wall-clock
# regression or on ANY drift in a deterministic counter (round counts,
# ledger totals) — the latter is machine-independent, so the job stays
# meaningful even when the CI runner is faster than the machine that
# recorded the baselines.
#
# Benchmarks that deposit run-report sections additionally emit
# REPORT_*.json (fully deterministic, no timings). Those are gated with
# perf_gate --report: byte-identity against the committed baseline, on any
# machine.
#
# Usage:
#   scripts/perf_smoke.sh [build_dir]             # gate against baselines
#   scripts/perf_smoke.sh [build_dir] --record    # re-record the baselines
#
# Environment knobs (all optional):
#   QCONGEST_SMOKE_OUT    keep BENCH_*.json in this directory instead of a
#                         throwaway mktemp dir (CI uploads them as artifacts)
#   PERF_GATE_MARKDOWN    append the per-benchmark delta tables as markdown
#                         to this file (CI points it at $GITHUB_STEP_SUMMARY)
#
# --record additionally appends one delta record per baseline file to the
# committed perf trajectory (bench/baselines/PERF_HISTORY.jsonl), labelled
# with the current commit, before overwriting the baselines.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
MODE=${2:-check}
BASELINE_DIR=bench/baselines
HISTORY_FILE=${BASELINE_DIR}/PERF_HISTORY.jsonl

# The pinned subset: one framework batch-cost point, the two interesting
# parallelism-sweep points (p=1 serial-engine hot path, p=32 ~ diameter),
# the clean + faulty BFS rows of the reliable-transport overhead bench
# plus its fault-free reliable-vs-direct row on path(128) (the
# synchronizer's per-round tax at depth),
# two recovery-tax rows (full replay vs dense checkpoints) whose
# recovery_rounds/recovery_words counters pin the E-recover accounting,
# two gate-level Grover searches (14 qubits, and 16, paper-sweep's slowest
# trial) whose gate_ops and gate_passes counters pin the size of the
# iterate and the kernel calls it makes, and Lemma 21's classical APSP
# baseline (multi-source BFS from every node), whose rounds/words counters
# pin its send schedule.
FRAMEWORK_FILTER='BM_BatchCost/n:64/k:1024/p:8/q:10|BM_ParallelismSweep/p:(1|32)/'
FAULT_FILTER='BM_FaultOverheadBfs/drop_permille:(0|50)/n:31|BM_FaultOverheadDepth/n:128'
RECOVER_FILTER='BM_RecoveryTaxBfs/ckpt_every:(0|2)/n:31'
STATEVECTOR_FILTER='BM_GroverIterate/qubits:(14|16)'
DIAMETER_FILTER='BM_ClassicalApsp/topology:1/n:128'

if [ -n "${QCONGEST_SMOKE_OUT:-}" ]; then
  OUT_DIR=${QCONGEST_SMOKE_OUT}
  mkdir -p "${OUT_DIR}"
else
  OUT_DIR=$(mktemp -d)
  trap 'rm -rf "${OUT_DIR}"' EXIT
fi
export QCONGEST_BENCH_JSON_DIR="${OUT_DIR}"

"${BUILD_DIR}/bench/bench_framework" --benchmark_filter="${FRAMEWORK_FILTER}"
"${BUILD_DIR}/bench/bench_fault_overhead" --benchmark_filter="${FAULT_FILTER}"
"${BUILD_DIR}/bench/bench_recovery" --benchmark_filter="${RECOVER_FILTER}"
"${BUILD_DIR}/bench/bench_statevector" --benchmark_filter="${STATEVECTOR_FILTER}"
"${BUILD_DIR}/bench/bench_diameter_radius" --benchmark_filter="${DIAMETER_FILTER}"

# The perf-trajectory label: which commit this run is being compared (or
# re-recorded) against, readable without checking out the repo.
LABEL=$(git log -1 --format='%h %cs' 2>/dev/null || echo "uncommitted")

if [ "${MODE}" = "--record" ]; then
  mkdir -p "${BASELINE_DIR}"
  # Append old-baseline -> new-run deltas to the committed trajectory before
  # overwriting. Drifted counters and regressions are sanctioned here (that
  # is what re-recording means), so the gate's exit code is ignored.
  for baseline in "${BASELINE_DIR}"/BENCH_*.json; do
    [ -e "${baseline}" ] || continue
    name=$(basename "${baseline}")
    [ -e "${OUT_DIR}/${name}" ] || continue
    "${BUILD_DIR}/tools/perf_gate" "${baseline}" "${OUT_DIR}/${name}" \
        --history "${HISTORY_FILE}" --label "${LABEL} (re-record)" || true
  done
  cp "${OUT_DIR}"/BENCH_*.json "${BASELINE_DIR}/"
  if compgen -G "${OUT_DIR}/REPORT_*.json" > /dev/null; then
    cp "${OUT_DIR}"/REPORT_*.json "${BASELINE_DIR}/"
  fi
  echo "perf_smoke: baselines re-recorded into ${BASELINE_DIR}/"
  exit 0
fi

status=0
GATE_EXTRA=()
if [ -n "${PERF_GATE_MARKDOWN:-}" ]; then
  GATE_EXTRA+=(--markdown "${PERF_GATE_MARKDOWN}")
fi
for baseline in "${BASELINE_DIR}"/BENCH_*.json; do
  name=$(basename "${baseline}")
  if ! "${BUILD_DIR}/tools/perf_gate" "${baseline}" "${OUT_DIR}/${name}" \
      --label "${LABEL}" "${GATE_EXTRA[@]}"; then
    status=1
  fi
done
for baseline in "${BASELINE_DIR}"/REPORT_*.json; do
  [ -e "${baseline}" ] || continue
  name=$(basename "${baseline}")
  if ! "${BUILD_DIR}/tools/perf_gate" --report "${baseline}" "${OUT_DIR}/${name}"; then
    status=1
  fi
done
exit "${status}"
