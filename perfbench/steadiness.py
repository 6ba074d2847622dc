#!/usr/bin/env python3
"""Steadiness study: runs every workload over several seeds and reports spreads.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 100] [--raw]

Run from the repository root. For every workload in BENCHMARK.json it
runs the benchmark command once per seed (first-seed, first-seed+1, ...)
and prints, per end-to-end metric, the median over the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. Each spread
is compared with a third of the metric's bound; the exit code is
non-zero when a run fails or a spread is not below it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--raw", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        print(f"{'metric':40} {'median':>14} {'spread':>8} {'bound/3':>8}")
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            limit = bounds[name] / 3
            ok = spread < limit
            steady &= ok
            print(f"{name:40} {med:14.6g} {spread:8.3f} {limit:8.3f}"
                  f"{'' if ok else '  NOT STEADY'}")
            if args.raw:
                print("    " + " ".join(f"{v:.6g}" for v in vals))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
