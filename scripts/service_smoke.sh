#!/usr/bin/env bash
# Service-smoke gate: boot qcongestd, drive it with qload, and hold the two
# product guarantees the daemon exists for:
#
#   1. graceful overload shedding — a submit burst far past the admission
#      bound produces structured rejections with retry hints, every shed
#      job succeeds on jittered retry, and the server never crashes, hangs,
#      or drops a reply on the floor;
#   2. byte-identical reports — the same (job, seed) replayed at engine
#      thread budgets 1 and 8, while the rest of the run keeps the server
#      busy, returns byte-equal report documents (qload --check-determinism
#      compares them).
#
# Along the way the run mixes clean jobs, fault-heavy jobs, crash-schedule
# jobs, malformed specs, and raw protocol garbage, so the exception- and
# connection-isolation stories are exercised too, then asks the daemon to
# shut down cleanly and checks it obliged — once with a shutdown frame, and
# once more on a fresh daemon with SIGTERM.
#
# Usage: scripts/service_smoke.sh [build_dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
QCONGESTD="${BUILD_DIR}/tools/qcongestd"
QLOAD="${BUILD_DIR}/tools/qload"

WORK_DIR=$(mktemp -d)
PORT_FILE="${WORK_DIR}/port"
SERVER_LOG="${WORK_DIR}/qcongestd.log"

SERVER_PID=""
cleanup() {
  if [[ -n "${SERVER_PID}" ]] && kill -0 "${SERVER_PID}" 2>/dev/null; then
    kill "${SERVER_PID}" 2>/dev/null || true
    wait "${SERVER_PID}" 2>/dev/null || true
  fi
  rm -rf "${WORK_DIR}"
}
trap cleanup EXIT

# A small queue and few workers on purpose: the overload burst below must
# actually hit the admission bound on any machine.
"${QCONGESTD}" --port 0 --workers 2 --max-pending 4 --max-nodes 64 \
  --port-file "${PORT_FILE}" > "${SERVER_LOG}" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 50); do
  [[ -s "${PORT_FILE}" ]] && break
  kill -0 "${SERVER_PID}" 2>/dev/null || {
    echo "service-smoke: server died during startup"; cat "${SERVER_LOG}"; exit 1; }
  sleep 0.1
done
[[ -s "${PORT_FILE}" ]] || { echo "service-smoke: server never bound a port"; exit 1; }
PORT=$(cat "${PORT_FILE}")
echo "service-smoke: qcongestd up on port ${PORT} (pid ${SERVER_PID})"

fail=0

echo "== lane 1: mixed clean + faulty jobs, moderate load =="
"${QLOAD}" --port "${PORT}" --jobs 9 --apps bfs,leader,convergecast,diameter \
  --nodes 20 --drop 0.05 --seed 41 || fail=1

echo "== lane 2: malformed specs and protocol garbage are survivable =="
# A spec over the server's --max-nodes limit must come back status=invalid
# (a structured reply qload tallies, not a failure or a hang), and raw
# garbage bytes must only cost the connection that sent them.
lane2_out=$("${QLOAD}" --port "${PORT}" --jobs 2 --apps bfs --nodes 999 --seed 1) \
  || { echo "service-smoke: qload choked on invalid-spec replies"; fail=1; }
echo "   ${lane2_out}"
grep -q "invalid=2" <<< "${lane2_out}" \
  || { echo "service-smoke: expected 2 structured invalid replies"; fail=1; }
head -c 256 /dev/urandom | timeout 5 bash -c "cat > /dev/tcp/127.0.0.1/${PORT}" || true
kill -0 "${SERVER_PID}" 2>/dev/null || {
  echo "service-smoke: server died on garbage input"; cat "${SERVER_LOG}"; exit 1; }

echo "== lane 3: overload burst sheds gracefully and retries drain =="
"${QLOAD}" --port "${PORT}" --jobs 24 --burst --expect-shed \
  --apps diameter,multibfs --graph complete --nodes 24 --drop 0.1 \
  --seed 7 --max-retries 12 || fail=1

echo "== lane 4: byte-identical reports at threads 1 vs 8 under load =="
"${QLOAD}" --port "${PORT}" --jobs 6 --apps bfs,leader \
  --nodes 24 --drop 0.05 --seed 91 \
  --check-determinism --shutdown || fail=1

# The daemon was asked to shut down; it must exit cleanly on its own.
for _ in $(seq 1 100); do
  kill -0 "${SERVER_PID}" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "${SERVER_PID}" 2>/dev/null; then
  echo "service-smoke: server ignored shutdown"
  fail=1
else
  wait "${SERVER_PID}" || { echo "service-smoke: server exited nonzero"; fail=1; }
  SERVER_PID=""
fi

echo "== server log =="
cat "${SERVER_LOG}"
grep -q "shut down cleanly" "${SERVER_LOG}" || {
  echo "service-smoke: no clean-shutdown line in the log"; fail=1; }

echo "== SIGTERM: the signal handler stops a fresh daemon cleanly =="
# The lanes above stop the daemon with a shutdown frame; an operator (or an
# init system) stops it with SIGTERM, which goes through the signal handler
# and Server::request_stop instead.
TERM_PORT_FILE="${WORK_DIR}/term-port"
TERM_LOG="${WORK_DIR}/qcongestd-term.log"
"${QCONGESTD}" --port 0 --workers 1 --port-file "${TERM_PORT_FILE}" \
  > "${TERM_LOG}" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 50); do
  [[ -s "${TERM_PORT_FILE}" ]] && break
  sleep 0.1
done
if [[ ! -s "${TERM_PORT_FILE}" ]]; then
  echo "service-smoke: SIGTERM daemon never bound a port"
  fail=1
else
  kill -TERM "${SERVER_PID}"
  for _ in $(seq 1 100); do
    kill -0 "${SERVER_PID}" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "service-smoke: server ignored SIGTERM"
    fail=1
  else
    term_rc=0
    wait "${SERVER_PID}" || term_rc=$?
    SERVER_PID=""
    [[ "${term_rc}" -eq 0 ]] || {
      echo "service-smoke: server exited ${term_rc} on SIGTERM"; fail=1; }
  fi
fi
cat "${TERM_LOG}"
grep -q "shut down cleanly" "${TERM_LOG}" || {
  echo "service-smoke: no clean-shutdown line after SIGTERM"; fail=1; }

if [[ "${fail}" -ne 0 ]]; then
  echo "service-smoke: FAIL"
  exit 1
fi
echo "service-smoke: PASS"
