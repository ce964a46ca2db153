#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this source tree and runs it.

    python3 e2ebench/run.py --workload <roundtrip|storm|redraw|build> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/e2ebench under the tree's root (the first
run configures and compiles; later runs only rebuild what changed). Build
output goes to stderr, so the last line of stdout is wafe_e2ebench's: one
JSON object with the run's metrics. A traced run also writes its
Chrome trace to .bench_build/traces/<workload>-seed<seed>.json.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "wafe_e2ebench")
RUN_TIMEOUT_S = 175


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no wafe source tree around " + BENCH_DIR)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "wafe_e2ebench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    build()
    command = [BINARY, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, "%s-seed%s.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
