#!/usr/bin/env python3
"""Steadiness sweep: runs one workload several times, each with another
seed, and prints every metric's median, quartiles and spread.

    python3 perfbench/sweep.py --workload many_products --runs 10

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). When BENCHMARK.json sits in the
current directory, each end-to-end metric's spread is shown against its
bound; a steady benchmark keeps every spread below a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"seed {seed}: run failed ({proc.returncode})")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]] = m["bound"]

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, args.seconds, args.trace)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    print(f"{'metric':45s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag = "  <-- above bound/3"
        print(f"{name:45s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
