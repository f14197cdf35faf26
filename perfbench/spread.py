#!/usr/bin/env python3
"""Run the benchmark several times with different seeds and print the
spread of every metric: the distance between the first and third
quartile of its values (statistics.quantiles, n=4) as a share of their
median. Also check that the exact counts (the `exact` lines, minus the
seeded output digests) repeat bit for bit across the runs.

    python3 perfbench/spread.py --workload compile --runs 10 --seconds 30

Run it from the repository root. The build happens on the first run;
later runs reuse it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        command = json.load(f)["command"]
    values = {}
    exact = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = command + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {result}")
        exact.add(tuple(line.split(" outputs=")[0]
                        for line in lines if line.startswith("exact")))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median)
        else:
            spread = 0.0
        print(f"{args.workload} {name}: median={median:.6g} spread={spread:.4f}")
    if len(exact) != 1:
        sys.exit(f"exact counts differ between runs: {len(exact)} variants")
    print(f"{args.workload} exact counts: identical in all {args.runs} runs "
          f"({len(next(iter(exact)))} lines)")


if __name__ == "__main__":
    main()
