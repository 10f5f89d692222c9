#!/usr/bin/env python3
"""Checks the benchmark command's output against BENCHMARK.json.

    python3 perfbench/selfcheck.py [--seed N] [--trace]

Runs every workload at the shortest setting (`--seconds 1`) from the
repository root and checks the last line of stdout: the keys `correct`,
`attempted`, `failed` and `metrics`; whole counts with `attempted >= 1`;
every declared end-to-end metric exactly once, finite and > 0, with its
declared unit; no undeclared metric. With `--trace` it also makes the
traced run of each workload and checks the per-layer metrics the same way
(present, finite, >= 0, declared unit, nothing undeclared). Exits 1 on any
problem.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_output(stdout, declared, positive):
    """Problems with one run's output; `declared` maps metric name to unit."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    dupes = []

    def no_dupes(pairs):
        keys = [k for k, _ in pairs]
        dupes.extend(sorted(k for k in set(keys) if keys.count(k) > 1))
        return dict(pairs)

    try:
        result = json.loads(lines[-1], object_pairs_hook=no_dupes)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = [f"{name} printed more than once" for name in dupes]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"top-level keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    for name in metrics:
        if name not in declared:
            problems.append(f"undeclared metric {name}")
    for name, unit in declared.items():
        entry = metrics.get(name)
        if entry is None:
            problems.append(f"missing metric {name}")
            continue
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, declared {unit!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif value < 0 or (positive and value == 0):
            problems.append(f"{name}: value {value!r} is not {'> 0' if positive else '>= 0'}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="also check the traced run")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            argv = bench["command"] + ["--workload", workload, "--seed", str(args.seed),
                                       "--seconds", "1", "--trace", str(trace)]
            run = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            problems = [f"exit code {run.returncode}"] if run.returncode else []
            problems += check_output(run.stdout, per_layer if trace else end_to_end, not trace)
            label = f"{workload} --trace {trace}"
            if problems:
                failures += 1
                print(f"FAIL {label}: " + "; ".join(problems))
            else:
                print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
