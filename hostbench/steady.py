#!/usr/bin/env python3
"""Steadiness report: run one workload N times and show each metric's spread.

Run from the repository root:

    python3 hostbench/steady.py --workload ladder --runs 10

Each run gets its own seed (--first-seed, then the next ones). For every
end-to-end metric the report prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the relative spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json. A spread
above a third of its bound is flagged, and one above the bound makes the
exit status 1; setup_s is exempt, since its bound applies to the median
alone. With --trace 1 it reports the per-layer metrics instead and flags
every count, MB or us metric that differs between runs. Simulated counts
must repeat exactly; host counts such as rt.mallocs, gc.cycles and, where
host overlap runs, the scheduler's parks, may not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"steady: {' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steady: seed {seed}: {result['failed']} of {result['attempted']} cells failed")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    kinds = spec["per_layer"] if args.trace else spec["end_to_end"]

    values = {m["name"]: [] for m in kinds}
    for i in range(args.runs):
        seed = args.first_seed + i
        metrics = run_once(args.workload, seed, seconds, args.trace)
        for name in values:
            values[name].append(metrics[name]["value"])
        print(f"run {i + 1}/{args.runs} seed {seed}: "
              + " ".join(f"{name}={metrics[name]['value']:.6g}" for name in values), file=sys.stderr)

    print(f"workload={args.workload} runs={args.runs} seconds={seconds} trace={args.trace}")
    print(f"{'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    bad = 0
    for m in kinds:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = m.get("bound")
        flag = ""
        if bound is not None and m["name"] != "setup_s":
            if spread > bound:
                flag = "  over bound"
                bad += 1
            elif spread > bound / 3:
                flag = "  over bound/3"
        if args.trace and m["unit"] in ("count", "us", "MB") and len(set(xs)) > 1:
            flag = "  varies between runs"
        b = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{m['name']:24} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {b}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
