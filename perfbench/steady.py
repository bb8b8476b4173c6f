#!/usr/bin/env python3
"""Steadiness check: run the benchmark on one workload under several seeds
and print, per end-to-end metric, the median and the spread (inter-quartile
distance over the median, as statistics.quantiles(values, n=4) gives it),
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py WORKLOAD [--runs 10] [--first-seed 1]

Run from the root of a checkout. A metric is steady when its spread stays
below a third of its bound; setup_s is exempt from the spread rule.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            mark = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "near")
        print(f"{name:28s} median {med:14.6g} spread {spread:7.4f} bound {bound} {mark}")
    print(f"worst spread/bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
