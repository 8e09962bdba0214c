#!/usr/bin/env python3
"""Reruns one benchmark workload with successive seeds and prints the
median, quartiles and spread of each metric.

    python3 perfbench/spread.py --workload ring-churn --runs 10 [--first-seed 1]

Run from the repository root. The command and the run length come from
BENCHMARK.json, so the runs are the ones the bounds there apply to; the
runs are untraced (`--trace 0`) and report the end-to-end metrics. The
spread of a metric is (Q3 - Q1) / median, with the quartiles of Python's
statistics.quantiles(values, n=4), and is compared with a third of the
metric's bound. The share of failed operations must be the same in every
run. The exit code is 1 if any spread is wider or the shares differ.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, shares = {}, set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: correct is false")
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    steady = len(shares) == 1
    print(f"\n{args.workload}: {args.runs} runs, failed share {sorted(shares)}")
    print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound/3':>8}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = spread < bounds[name] / 3
        steady &= ok
        mark = "ok" if ok else "WIDE"
        print(f"{name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{bounds[name] / 3:8.4f} {mark}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
