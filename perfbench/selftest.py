#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. Every workload the harness has (those BENCHMARK.json lists, and
   serve-http, which it does not: see README.md) runs at smoke size,
   untraced and traced, in seconds, with every operation correct.
2. Every metric BENCHMARK.json names is printed with the unit it declares,
   and the harness's own catalogue lists the same metrics.
3. A deliberately wrong reference value makes the run fail.
4. In a directory holding only BENCHMARK.json and the benchmark's files, the
   command exits non-zero without printing a result.

Scratch files go under .bench_build/selftest/.
"""

import json
import os
import shutil
import subprocess
import sys
import time

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
SCRATCH = os.path.join(".bench_build", "selftest")
SMOKE_LIMIT_S = 60
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, extra=(), cwd=None):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke", *extra]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=cwd, timeout=600)
    elapsed = time.monotonic() - start
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result, elapsed


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    # Build once (the first run compiles), outside the smoke timings.
    run(workloads[0], 0)

    catalogue = json.loads(subprocess.run(
        [os.path.join(".bench_build", "perfbench", "perfbench"),
         "--list-metrics"], stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    check(set(workloads) <= set(catalogue["workloads"]),
          "BENCHMARK.json workloads are workloads of the harness")
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        listed = {m["name"]: m["unit"] for m in catalogue[kind]}
        check(listed == expected[trace],
              f"BENCHMARK.json {kind} metrics match the harness catalogue")

    for workload in catalogue["workloads"]:
        for trace in (0, 1):
            proc, result, elapsed = run(workload, trace)
            name = f"{workload} smoke trace={trace}"
            check(result is not None, f"{name}: prints a result")
            if result is None:
                sys.stderr.write(proc.stderr[-2000:])
                continue
            check(elapsed < SMOKE_LIMIT_S,
                  f"{name}: finishes in {elapsed:.1f} s (< {SMOKE_LIMIT_S})")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  f"{name}: {result['attempted']} attempted, "
                  f"{result['failed']} failed")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == expected[trace],
                  f"{name}: prints every metric with its unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{name}: every value is a number")

    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join("perfbench", "reference.json")) as f:
        reference = json.load(f)
    key = "mine-deep.ALL.digest"
    reference[key] = "0000000000000000"
    wrong = os.path.join(SCRATCH, "wrong_reference.json")
    with open(wrong, "w") as f:
        json.dump(reference, f)
    proc, result, _ = run("mine-deep", 0, ["--reference", wrong])
    check(result is not None and not result["correct"]
          and result["failed"] >= 1 and key in proc.stderr,
          f"a wrong {key} reference fails the run")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    start = time.monotonic()
    proc = subprocess.run(bench["command"] + [
        "--workload", workloads[0], "--seed", "1", "--seconds", "1",
        "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=180)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout
          and time.monotonic() - start < 180,
          "without the program's sources the command fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
