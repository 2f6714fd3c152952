#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <family_seq|family_par|serve_edit_loop>
                             --seed <n> --seconds <s> --trace <0|1> [flags]

Extra flags (--smoke, --corrupt-expectation) pass through to the
perfbench binary. The build goes to $CARGO_TARGET_DIR when
set, else to .bench_build, under the repository root; the first run
configures and compiles (about a minute on 4 cores), later runs only check
that the build is up to date. Build output goes to stderr, so the last line
of stdout stays the benchmark's JSON result. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], stdout=sys.stderr, check=True)


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "analyzer", "AnalysisSession.h")):
        print("perfbench: the analyzer sources (src/) are missing next to perfbench/",
              file=sys.stderr)
        return 2
    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    # Relative paths from the repository root keep the daemon's socket path
    # within the 107-byte AF_UNIX limit wherever the checkout lives.
    work = os.path.relpath(os.path.dirname(bdir), ROOT)
    cmd = [os.path.join(bdir, "perfbench"), *sys.argv[1:],
           "--repo-root", ".", "--work-dir", work]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
