#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
computes it: run one workload once per seed, then per metric print the
median, the quartiles from statistics.quantiles(values, n=4), and the
interquartile distance as a share of the median next to the metric's
bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]

Runs are sequential (parallel runs would contend for the same cores).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    a = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in seeds(a.seeds):
        p = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        last = p.stdout.rstrip("\n").split("\n")[-1]
        if p.returncode != 0 or not last.startswith("{"):
            sys.stdout.write(p.stdout + p.stderr)
            sys.exit(f"seed {seed}: run.py exited {p.returncode}")
        result = json.loads(last)
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(
            f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    print(f"\n{a.workload}: {len(seeds(a.seeds))} runs of {seconds} s")
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for k, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med if med else float("inf")
        flag = "" if share < bounds.get(k, 0) / 3 else "  <- above bound/3"
        print(f"{k:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{share:>8.3f} {bounds.get(k, 0):>6}{flag}")


if __name__ == "__main__":
    main()
