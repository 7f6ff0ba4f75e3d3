#!/usr/bin/env python3
"""Builds frontiers_e2e from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the repository root.  The first run configures and compiles
the benchmark and the library sources into .bench_build/e2e (a few
minutes); later runs only check that the build is up to date.  Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
With --trace 1 the run also writes its spans to
.bench_build/e2e/spans-<workload>-<seed>.jsonl.  Exits non-zero, printing no
result, when the library sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources not found under %s/src" % ROOT,
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if not build():
        return 1
    command = [os.path.join(BUILD, "frontiers_e2e"),
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds,
               "--trace=" + args.trace]
    if args.trace == "1":
        command.append("--spans=" + os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed)))
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
