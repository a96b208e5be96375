#!/usr/bin/env python3
"""Builds the hymem benchmark harness from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --test

The first call configures and builds perfbench/ (and the hymem libraries it
links, from src/) into .bench_build/perfbench; later calls only rebuild what
changed. Build output goes to standard error, so the last line of standard
output is the harness's JSON result. --test builds and runs the benchmark's
own tests instead. Exits non-zero, printing no result, when the build or the
run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.run(["cmake", "--build", BUILD, "--target", target,
                           "-j", jobs], stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and not args.workload:
        parser.error("--workload is required")

    target = "perfbench_tests" if args.test else "perfbench_harness"
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, target),
               "--expected", os.path.join(HERE, "expected.txt"),
               "--out-dir", OUT]
    if not args.test:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", args.trace]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
