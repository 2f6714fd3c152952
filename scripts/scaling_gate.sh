#!/usr/bin/env bash
# Fig. 2 scaling gate: the analysis cost of the program family must grow
# close to linearly with program size. Analyzes the seed-42 family members
# of 1000, 2000 and 4000 lines (astral-cli emit-family) three times each at
# --jobs=1, takes the median `analysis_seconds` per member, fits the
# least-squares slope of log(time) against log(lines), and fails when the
# slope exceeds 1.5. Every member must also raise zero alarms.
#
# The slope is a ratio of times measured on one host in one invocation, so
# it does not depend on how fast the host is — only on how the analysis
# scales. A linear analysis measures 1.0-1.2 here (the members' work counters
# roughly double per size step); an analysis doing O(environment) work per
# call measures 1.8-1.9.
#
# Usage: scripts/scaling_gate.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
CLI="$BUILD/tools/astral-cli"
if [[ ! -x "$CLI" ]]; then
  echo "scaling_gate: missing $CLI (build first)" >&2
  exit 1
fi

LINES="1000 2000 4000"
RUNS=3
MAX_SLOPE=1.5

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

points=""
for n in $LINES; do
  "$CLI" emit-family --lines="$n" --seed=42 >"$WORK/fam$n.c"
  times=""
  for ((r = 0; r < RUNS; ++r)); do
    "$CLI" "$WORK/fam$n.c" --json --jobs=1 >"$WORK/report.json"
    alarms=$(sed -nE 's/^ *"alarm_count": ([0-9]+),?$/\1/p' "$WORK/report.json")
    if [[ "$alarms" != "0" ]]; then
      echo "scaling_gate: fam$n raised ${alarms:-an unknown number of} alarm(s)" >&2
      exit 1
    fi
    t=$(sed -nE 's/^ *"analysis_seconds": ([0-9.eE+-]+),?$/\1/p' "$WORK/report.json")
    times="$times $t"
  done
  median=$(printf '%s\n' $times | sort -g | sed -n "$(((RUNS + 1) / 2))p")
  echo "scaling_gate: fam$n analysis_seconds runs:$times median: $median"
  points="$points $n $median"
done

# Least-squares slope of log(t) on log(n).
echo "$points" | awk -v max="$MAX_SLOPE" '{
  k = 0
  for (i = 1; i < NF; i += 2) {
    x[k] = log($i); y[k] = log($(i + 1)); sx += x[k]; sy += y[k]; ++k
  }
  mx = sx / k; my = sy / k
  for (i = 0; i < k; ++i) { sxy += (x[i] - mx) * (y[i] - my); sxx += (x[i] - mx)^2 }
  slope = sxy / sxx
  printf "scaling_gate: log-log slope %.2f (bound %.2f)\n", slope, max
  if (slope > max) {
    print "scaling_gate: FAILED: analysis time grows faster than the bound" > "/dev/stderr"
    exit 1
  }
  print "scaling_gate: passed"
}'
