#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload bulk_tcf|churn_gqf --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Configures and builds perfbench/ (which
compiles the program's sources under src/) into .bench_build/perfbench,
runs the benchmark's own self-test, then runs the workload.  Build output
goes to stderr; the benchmark's report and its closing JSON line go to
stdout.  Snapshots, WAL directories, per-run results and chrome://tracing
files land in .bench_build/run.  Exits nonzero when the build, the
self-test or an oracle check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("bulk_tcf", "churn_gqf")
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s


def build():
    """Configure and build (both incremental); returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
