#!/usr/bin/env python3
"""Out-of-core memory gate over the committed bench/BENCH_scale.json.

The sharded mining engine promises two things the bench record makes
checkable offline: a mine run's peak RSS stays inside the --memory-budget
the shard planner was given (the planner sized the shards to make that
true), and the sharded result is bit-identical to the single-shot miner
(the per-record digest matched the shard_count=1 baseline). This gate
regresses on both from the committed record, so a planner or merge change
that silently breaks the budget or the determinism contract fails CI even
on a runner too small to rerun the full 100k-row profile.

Rules:
  * every mine record must carry peak_rss_kb, memory_budget_bytes,
    materialized_bytes and deterministic (schema check);
  * timed-out records are skipped with a notice — RSS at the point the
    deadline landed is not comparable;
  * every completed mine record must have deterministic == true (its
    digest matched the shard_count=1 baseline in the same bench run);
  * every completed mine record must have peak_rss_kb * 1024 <=
    memory_budget_bytes, and the budget itself must be smaller than
    materialized_bytes (otherwise "out of core" proved nothing).

Usage: tools/lint/rss_gate.py [path/to/BENCH_scale.json]
"""

import json
import sys


def evaluate(records, path):
    """Applies the gate rules to already-parsed bench records.

    Pure: no I/O, no printing — tools/lint/gate_selftest.py drives this
    directly against fixture records. Returns (failures, skipped,
    ok_lines, gated): the failure messages, the timed-out record labels,
    the per-record "ok" report lines in record order, and the count of
    completed mine records the budget actually gated.
    """
    failures = []
    skipped = []
    ok_lines = []
    gated = 0
    for rec in records:
        if rec.get("kind") != "mine":
            continue
        where = "{} shards={}".format(
            rec.get("profile", "?"), rec.get("shard_count", "?"))
        missing = [field for field in
                   ("peak_rss_kb", "memory_budget_bytes",
                    "materialized_bytes", "deterministic")
                   if field not in rec]
        if missing:
            failures.append("{}: missing field(s) {}".format(
                where, ", ".join(repr(f) for f in missing)))
            continue
        if rec.get("timed_out", False):
            skipped.append(where)
            continue
        gated += 1
        if not rec["deterministic"]:
            failures.append(
                "{}: deterministic=false — sharded digest diverged from "
                "the shard_count=1 baseline".format(where))
        rss_bytes = rec["peak_rss_kb"] * 1024
        budget = rec["memory_budget_bytes"]
        materialized = rec["materialized_bytes"]
        if budget >= materialized:
            failures.append(
                "{}: memory budget {} >= materialized matrix {} — the "
                "out-of-core claim is vacuous".format(
                    where, budget, materialized))
        if rss_bytes > budget:
            failures.append(
                "{}: peak RSS {} bytes > memory budget {} bytes".format(
                    where, rss_bytes, budget))
        else:
            ok_lines.append(
                "  ok {}: peak RSS {:.1f} MiB within budget {:.1f} MiB "
                "(matrix {:.1f} MiB)".format(
                    where, rss_bytes / 2**20, budget / 2**20,
                    materialized / 2**20))

    if gated == 0:
        failures.append(
            "no completed mine records found in {} — the gate is "
            "vacuous".format(path))
    return failures, skipped, ok_lines, gated


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "bench/BENCH_scale.json"
    with open(path) as f:
        records = json.load(f)

    failures, skipped, ok_lines, gated = evaluate(records, path)
    for line in ok_lines:
        print(line)
    for where in skipped:
        print("  skipped (timed out): {}".format(where))
    if failures:
        print("rss gate FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print("rss gate passed: {} mine records within their memory budget, "
          "all digests shard-count invariant.".format(gated))
    return 0


if __name__ == "__main__":
    sys.exit(main())
