#!/usr/bin/env python3
"""Runs one workload of the co-simulation benchmark.

    python3 cosimbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark program (Release) into
.bench_build/cosimbench on first use, runs the workload for S seconds of
measurement, and prints its report; the last line is one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones, and also writes a Perfetto
trace into .bench_build/cosimbench-artifacts. Exits non-zero, without a
result line, when the simulator sources are missing or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cosimbench")
ARTIFACTS = os.path.join(ROOT, ".bench_build", "cosimbench-artifacts")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds incrementally; build output goes to stderr."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j3", "--target", "cosimbench",
                    "cosimbench_issworker"], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("cosimbench: simulator sources (src/) not found next to cosimbench/",
              file=sys.stderr)
        return 1
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"cosimbench: build failed: {e}", file=sys.stderr)
        return 1

    command = [os.path.join(BUILD, "cosimbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--worker", os.path.join(BUILD, "cosimbench_issworker"),
               "--artifacts", ARTIFACTS]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("cosimbench: run timed out", file=sys.stderr)
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        print(f"cosimbench: benchmark program exited with {done.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(done.stdout)
        print("cosimbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
