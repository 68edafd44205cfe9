#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/spread.py --workload <name> [--seeds 10] [--seconds S] [--trace 0]

Runs perfbench/run.py once per seed (1..N) and prints, for every metric,
the median of the runs and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median, next
to the metric's bound from BENCHMARK.json. A steady benchmark keeps every
spread below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect result" % seed)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d done" % seed, file=sys.stderr)

    print("%-36s %14s %8s %7s  %s" % ("metric", "median", "spread", "bound", "values"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print("%-36s %14.6g %8.4f %7s  %s%s" % (
            name, med, spread, "-" if bound is None else bound,
            " ".join("%.4g" % v for v in vals), flag))


if __name__ == "__main__":
    main()
