#!/usr/bin/env python3
"""Steadiness report: runs the benchmark repeatedly, one seed per run, and
prints every metric by name and unit with its median, quartiles and
spread (interquartile range over median) per workload.

    python3 fungusbench/steady.py --runs 10 --seconds 40
    python3 fungusbench/steady.py --workloads scan_agg --runs 5 --first-seed 100

The quartiles are Python's statistics.quantiles(values, n=4). A spread
is comparable to a metric's bound in BENCHMARK.json: a benchmark is
steady when every end-to-end spread stays well inside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scan_agg", "ingest_decay", "mixed_consume")


def one_run(workload, seed, seconds):
    """Returns ({metric: (value, unit)}, result) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d (exit %d)" %
                 (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    metrics = {}
    # Every metric the run printed, declared in BENCHMARK.json or not.
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            metrics[parts[1]] = (float(parts[2]), parts[3])
    for name, m in result["metrics"].items():
        metrics[name] = (m["value"], m["unit"])
    return metrics, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    for workload in args.workloads:
        values, units, bad = {}, {}, 0
        for i in range(args.runs):
            seed = args.first_seed + i
            metrics, result = one_run(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                bad += 1
            for name, (value, unit) in metrics.items():
                values.setdefault(name, []).append(value)
                units[name] = unit
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, m["value"]) for k, m in sorted(
                    result["metrics"].items()))), file=sys.stderr)
        print("\n%s: %d runs, %d incorrect or with failed statements" %
              (workload, args.runs, bad))
        print("  %-36s %-6s %12s %12s %12s %8s" %
              ("metric", "unit", "median", "q1", "q3", "spread"))
        for name in sorted(values):
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (
                v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else float("nan")
            print("  %-36s %-6s %12.6g %12.6g %12.6g %8.3f" %
                  (name, units[name], med, q1, q3, spread))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
