"""Steadiness report: repeat each workload and print each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workload conv_train ...] [--trace 0]

Runs `perfbench/run.py` once per seed (first-seed, first-seed+1, ...) and
workload, one run at a time, with BENCHMARK.json's run_seconds unless
--seconds is given.  For every metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median
and, for end-to-end metrics, that spread as a share of the metric's bound.
With --runs 1 it simply prints every metric of every workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="perfbench steadiness report")
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output; {lines[-2]}", file=sys.stderr)
                status = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        print(f"\n{workload}: {args.runs} runs of {args.seconds:g} s, trace {args.trace}")
        print(f"{'metric':36s} {'unit':8s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'/bound':>7s}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) < 2:
                print(f"{name:36s} {units[name]:8s} {med:12.6g}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            share = f"{spread / bounds[name]:7.2f}" if name in bounds else ""
            print(f"{name:36s} {units[name]:8s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {share}")
    return status


if __name__ == "__main__":
    sys.exit(main())
