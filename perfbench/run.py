#!/usr/bin/env python3
"""Runs one perfbench workload from the root of a topkrgs checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness and the libraries from source into .bench_build/ (the
first run compiles; later runs only check that the build is current), runs
the workload, and passes through its output. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}. The full record
of the run (environment stamp, checks, notes, spans) is written to
.bench_build/results/. Exits non-zero without a result when the build or the
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
RESULTS_DIR = os.path.join(".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["table2-train", "mine-deep", "serve-http", "scale-shards"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Compiler and harness scratch files stay inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(".bench_build",
                                                          "tmp")))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, env=ENV)
        except subprocess.TimeoutExpired:
            fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repository root")
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    log = os.path.join(".bench_build", "build.log")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "perfbench", "-B", BUILD_DIR], log,
                   BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], log,
               BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    parser.add_argument("--reference", default=os.path.join("perfbench",
                                                            "reference.json"))
    args = parser.parse_args()

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    record = os.path.join(
        RESULTS_DIR, f"{args.workload}-{args.size}-seed{args.seed}"
        f"-trace{args.trace}.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", WORK_DIR,
           "--reference", args.reference, "--record", record]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the harness printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
