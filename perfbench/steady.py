#!/usr/bin/env python3
"""Steadiness report: runs one workload N times (one seed each) plus a
repeat of the first seed, and prints every metric's median, quartiles,
min and max.

    python3 perfbench/steady.py --workload train_scan --runs 10 [--trace 0]

Flags (exit code 1 when any is raised):
  SPREAD  the quartile spread (q3 - q1) / median of an end-to-end metric
          exceeds its bound in BENCHMARK.json;
  COUNT   a count metric (read_amp, write_amp, space_amp, *_per_op)
          differs between the two runs of the first seed.
The quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

COUNT_METRICS = ("read_amp", "write_amp", "space_amp")


def is_count(name):
    return name in COUNT_METRICS or name.endswith("_per_op")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, q3, (q3 - q1) / abs(med) if med else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    seeds = list(range(1, args.runs + 1))
    results = [run_once(args.workload, s, seconds, args.trace) for s in seeds]
    repeat = run_once(args.workload, seeds[0], seconds, args.trace)
    if any(not r["correct"] for r in results + [repeat]):
        print("FLAG CORRECT: a run reported wrong results")

    flags = 0
    print("%-36s %12s %12s %12s %8s %12s %12s %7s" %
          ("metric", "median", "q1", "q3", "spread", "min", "max", "bound"))
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        q1, q3, rel = spread(values)
        bound = bounds.get(name)
        note = ""
        if bound is not None and rel > bound:
            note += " SPREAD"
        if is_count(name) and results[0]["metrics"][name]["value"] != repeat["metrics"][name]["value"]:
            note += " COUNT"
        flags += bool(note)
        print("%-36s %12.6g %12.6g %12.6g %7.1f%% %12.6g %12.6g %7s%s" %
              (name, statistics.median(values), q1, q3, 100 * rel, min(values), max(values),
               "-" if bound is None else "%g" % bound, note))
    print("runs: %d seeds %d..%d + a repeat of seed %d; flags: %d" %
          (len(seeds), seeds[0], seeds[-1], seeds[0], flags))
    sys.exit(1 if flags else 0)


if __name__ == "__main__":
    main()
