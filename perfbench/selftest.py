#!/usr/bin/env python3
"""Fast self-test of the repository benchmark at smoke size.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * an untraced run emits exactly the end-to-end metrics, a traced run
    exactly the per-layer metrics, both with every operation correct;
  * the traced run writes a Chrome trace file;
  * a deliberately corrupted expectation (--corrupt-expectation) is counted
    in `failed` and makes `correct` false.
Also checks that two traced family_seq runs report identical work counts,
and that the benchmark fails without printing a result when the analyzer
sources are absent. Exits 0 when every check passes. Takes about a minute
on 4 cores after the build.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
import run as runner  # noqa: E402  (the build-directory convention)

WORK = os.path.dirname(runner.build_dir())
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, seed=7, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if p.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return p, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in [w["name"] for w in bench["workloads"]]:
        for trace, expected in ((0, e2e), (1, layers)):
            p, r = run(w, trace)
            tag = f"{w} --trace {trace}"
            check(r is not None, f"{tag}: exits 0 with a JSON result line")
            if r is None:
                continue
            check(set(r) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result has exactly the four keys")
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{tag}: every operation correct ({r['failed']}/{r['attempted']} failed)")
            got = r["metrics"]
            check(set(got) == set(expected),
                  f"{tag}: emits every named metric "
                  f"(missing {sorted(set(expected) - set(got))}, "
                  f"extra {sorted(set(got) - set(expected))})")
            check(all(got[k]["unit"] == expected[k] for k in got if k in expected),
                  f"{tag}: units match BENCHMARK.json")
            check(all(math.isfinite(v["value"]) for v in got.values()),
                  f"{tag}: every value is finite")
            if trace == 0:
                check(all(v["value"] > 0 for v in got.values()),
                      f"{tag}: every end-to-end metric is above 0")
            else:
                path = os.path.join(WORK, f"trace_{w}_7.json")
                try:
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    check(len(events) > 0, f"{tag}: trace file {path} holds spans")
                except (OSError, ValueError, KeyError):
                    check(False, f"{tag}: trace file {path} is readable trace JSON")
                check("self time per span:" in p.stdout, f"{tag}: prints the self-time table")

        p, r = run(w, 0, "--corrupt-expectation")
        check(r is not None and r["failed"] >= 1 and not r["correct"],
              f"{w}: a corrupted expectation is counted in failed")

    def counts(r):
        return {k: v["value"] for k, v in r["metrics"].items()
                if v["unit"] in ("count", "count/kLOC", "ratio", "cells")
                and k != "tracing.spans"}
    _, a = run("family_seq", 1, seed=11)
    _, b = run("family_seq", 1, seed=11)
    check(a is not None and b is not None and counts(a) == counts(b),
          "family_seq: two runs report identical work counts")

    bare = os.path.join(WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "family_seq",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=180)
    check(p.returncode != 0 and '"correct"' not in p.stdout,
          "without the analyzer sources: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
