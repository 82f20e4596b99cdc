#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the crowd-enabled database.

Usage (from the repository root):

    python3 e2ebench/run.py --workload cold_build|sql_expand|serve_mixed \
        --seed N --seconds S --trace 0|1

Builds e2ebench/ (which compiles the repository's own libraries from
source, Release, into .bench_build/e2ebench) and runs one measurement.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones; the
last stdout line is the result JSON. The exit code is non-zero when the
sources are missing, the build fails, or any output check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
STATE_DIR = os.path.join(ROOT, ".bench_build", "e2e_state")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
WORKLOADS = ("cold_build", "sql_expand", "serve_mixed")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(command, timeout):
    """Runs a build step with its output on stderr (stdout is the result)."""
    try:
        completed = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                                   stderr=sys.stderr, timeout=timeout,
                                   check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))
    if completed.returncode != 0:
        fail("failed: " + " ".join(command))


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("repository sources not found (%s missing)" % required)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_logged(configure, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                "-j", jobs], BUILD_TIMEOUT_S)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--state-dir", STATE_DIR]
    try:
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                                   check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = completed.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result (exit %d)" % completed.returncode,
             completed.returncode or 1)
    result = json.loads(lines[-1])
    expected = declared_metrics(args.trace == 1)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        fail("metrics differ from BENCHMARK.json: %s" % sorted(
            set(expected) ^ set(result["metrics"])), 3)
    print(lines[-1])
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
