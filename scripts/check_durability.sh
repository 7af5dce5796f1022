#!/usr/bin/env bash
# End-to-end kill-and-resume check for the durability layer.
#
# Runs one real sweep (fig13, scaled down) three ways:
#   1. reference  — uninterrupted, results into $WORK/ref
#   2. killed     — same sweep into $WORK/res, SIGKILL'd mid-flight (no
#                   clean shutdown: only the journal's completed cells and
#                   any auto-checkpoints survive, which is the point)
#   3. resumed    — rerun with --resume into the same $WORK/res
# and then diffs the two JSON artifacts modulo the documented
# non-deterministic fields (wall clock, attempts, resumed markers). Any
# other difference means resume broke the determinism contract.
#
# Also runs `ctest -L durability` first, so the unit layer gates the
# end-to-end layer.
#
# Usage: scripts/check_durability.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"
BENCH_NAME="fig13_granularity_10k"
BENCH="$BUILD_DIR/bench/$BENCH_NAME"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target "$BENCH_NAME" \
      hmm_durability_tests >/dev/null

ctest --test-dir "$BUILD_DIR" -L durability -j "$JOBS" --output-on-failure

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Strip the fields that legitimately differ between an uninterrupted run
# and a killed+resumed one: host wall time and the host throughput derived
# from it, and the retry/resume bookkeeping (the JSON is pretty-printed,
# one field per line).
normalize() {
  grep -vE '"(wall_seconds|accesses_per_sec)(_total)?"|"(attempts|resumed|retried)"' "$1"
}

echo "[durability] reference sweep"
HMM_BENCH_SCALE="${HMM_BENCH_SCALE:-0.25}" HMM_RESULTS_DIR="$WORK/ref" \
  "$BENCH" --jobs "$JOBS" >"$WORK/ref_stdout" 2>/dev/null

echo "[durability] killed sweep (SIGKILL mid-flight)"
set +e
HMM_BENCH_SCALE="${HMM_BENCH_SCALE:-0.25}" HMM_RESULTS_DIR="$WORK/res" \
  HMM_CKPT_INTERVAL=1 setsid "$BENCH" --jobs "$JOBS" \
  >"$WORK/kill_stdout" 2>/dev/null &
PID=$!
sleep 2
kill -KILL -- "-$PID" 2>/dev/null || kill -KILL "$PID" 2>/dev/null
wait "$PID" 2>/dev/null
set -e

if [[ ! -f "$WORK/res/$BENCH_NAME.journal" ]]; then
  echo "[durability] note: sweep finished before the kill landed;" \
       "resume below degenerates to a no-op pass (raise HMM_BENCH_SCALE" \
       "to slow the sweep down)"
fi

echo "[durability] resumed sweep (--resume)"
HMM_BENCH_SCALE="${HMM_BENCH_SCALE:-0.25}" HMM_RESULTS_DIR="$WORK/res" \
  "$BENCH" --jobs "$JOBS" --resume >"$WORK/res_stdout" 2>/dev/null

if [[ -f "$WORK/res/$BENCH_NAME.journal" ]]; then
  echo "[durability] FAIL: journal still present after a completed resume"
  exit 1
fi

if ! diff <(normalize "$WORK/ref/$BENCH_NAME.json") \
          <(normalize "$WORK/res/$BENCH_NAME.json"); then
  echo "[durability] FAIL: resumed sweep diverged from the reference"
  exit 1
fi
if ! diff "$WORK/ref_stdout" "$WORK/res_stdout"; then
  echo "[durability] FAIL: resumed sweep printed a different table"
  exit 1
fi
echo "[durability] OK: killed+resumed sweep is identical to the reference"
