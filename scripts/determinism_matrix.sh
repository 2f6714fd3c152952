#!/usr/bin/env bash
# Determinism gate of the batch grain: one --jobs=8 invocation over all the
# golden examples (whole files scheduled across the worker pool) must print
# exactly the per-file --jobs=1 reports, in input order. One file always
# runs on one thread, so this is the only place --jobs could reach a report.
# The in-tree ctest goldens additionally rerun each case alone at --jobs=8.
#
# The threaded example must also really run interference fixpoint rounds:
# a silently-skipped concurrency pass would still be byte-identical — at
# the wrong semantics.
#
# Mismatching reports are saved under <build-dir>/determinism-actual — the
# stable path CI uploads as a workflow artifact on failure.
#
# Usage: scripts/determinism_matrix.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
CLI="$BUILD/tools/astral-cli"
if [[ ! -x "$CLI" ]]; then
  echo "determinism_matrix: missing $CLI (build first)" >&2
  exit 1
fi
ACTUAL_DIR="$BUILD/determinism-actual"

CASES="quickstart filter_verification alarm_investigation flight_control
       interp_table rate_limiter_clocked partitioned_switch
       thread_handoff thread_mode_table"

# Wall-clock is the one environment-dependent report field.
normalize() {
  sed -E 's/"analysis_seconds": [0-9.eE+-]+/"analysis_seconds": "<time>"/'
}

STDERR_TMP=$(mktemp)
trap 'rm -f "$STDERR_TMP"' EXIT

# Runs astral-cli on "$@" --json, naming the configuration on any non-zero
# exit (a crash here must not die silently under set -e).
run_cli() {
  local rc=0
  "$CLI" "$@" --json 2>"$STDERR_TMP" | normalize || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "determinism_matrix: astral-cli $* exited with $rc:" >&2
    cat "$STDERR_TMP" >&2
    return 1
  fi
}

# The expected batch output: the per-file sequential reports as a JSON
# array, in input order.
inputs=()
expected="["
sep=""
for case in $CASES; do
  input="examples/$case.cpp"
  inputs+=("$input")
  report=$(run_cli "$input" --jobs=1)
  expected+=$'\n'"$sep$report"
  sep=$',\n'
done
expected+=$'\n'"]"

fail=0
batch=$(run_cli "${inputs[@]}" --jobs=8)
if [[ "$batch" != "$expected" ]]; then
  echo "DETERMINISM VIOLATION: the --jobs=8 batch differs from the" \
       "per-file --jobs=1 reports" >&2
  diff <(printf '%s\n' "$expected") <(printf '%s\n' "$batch") | head -40 >&2 || true
  mkdir -p "$ACTUAL_DIR"
  printf '%s\n' "$expected" >"$ACTUAL_DIR/batch.expected.json"
  printf '%s\n' "$batch" >"$ACTUAL_DIR/batch.jobs8.actual.json"
  fail=1
else
  echo "determinism_matrix: ok — --jobs=8 batch of ${#inputs[@]} examples" \
       "matches the per-file --jobs=1 reports"
fi

rounds=$("$CLI" examples/thread_handoff.cpp --json --jobs=8 \
    --dump-stats 2>&1 >/dev/null |
    sed -nE 's/^concurrency\.rounds = ([0-9]+)$/\1/p')
if [[ -z "$rounds" || "$rounds" -eq 0 ]]; then
  echo "determinism_matrix: interference rounds never ran on" \
       "thread_handoff (concurrency.rounds=${rounds:-missing})" >&2
  fail=1
else
  echo "determinism_matrix: interference fixpoint ran ($rounds round(s))"
fi

if [[ $fail -ne 0 ]]; then
  echo "determinism_matrix: FAILED" >&2
  exit 1
fi
echo "determinism_matrix: all reports byte-identical"
