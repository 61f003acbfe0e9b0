#!/usr/bin/env python3
"""Builds the replay benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig10_saturation --seed 1 \
        --seconds 45 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the repository root) and is incremental after the first run. Build
output goes to stderr; the benchmark's own stdout is passed through, and its
last line is the result JSON. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "fenix_perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "fenix_perfbench")


def main():
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
