#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload build|rank_pages|app_queries \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The binary and the library sources it
links are compiled into .bench_build/perfbench (configured on first use,
incremental afterwards); build output goes to stderr, so the last line of
stdout is the binary's JSON result. Snapshot files the binary writes go to
.bench_build/perfbench/work. The exit code is the binary's: non-zero when
the build fails or a correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build", "rank_pages", "app_queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    workdir = os.path.join(BUILD_DIR, "work")
    os.makedirs(workdir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--reference", os.path.join(HERE, "reference.json"),
         "--benchmark", os.path.join(ROOT, "BENCHMARK.json"),
         "--workdir", workdir]).returncode


if __name__ == "__main__":
    sys.exit(main())
