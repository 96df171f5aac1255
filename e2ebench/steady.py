#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

Runs the command in BENCHMARK.json N times per workload, each with another
seed, and prints for every metric the median, the quartiles and the spread
(IQR / median, quartiles as statistics.quantiles(values, n=4) gives them),
next to the metric's bound. The bounds in BENCHMARK.json are set from this
report: every spread should stay below a third of its bound.

Run from the repository root:

    python3 e2ebench/steady.py --runs 10 [--workload sweepd] [--first-seed 100] [--trace 1]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    result["log"] = [l for l in proc.stderr.splitlines() if l.startswith("window")]
    return result, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, wall = run_once(bench["command"], workload, seed,
                                    bench["run_seconds"], args.trace)
            walls.append(wall)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
            for line in result.get("log", []):
                print(f"    {line}", file=sys.stderr)
        print(f"\n{workload}: {args.runs} runs, wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        print(f"  {'metric':<34} {'median':>13} {'q1':>13} {'q3':>13} {'iqr/med':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s":
                ok = spread < bound / 3
                steady &= ok
                flag = "ok" if ok else "NOISY"
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<34} {med:13.6g} {q1:13.6g} {q3:13.6g} {spread:8.3f} {bound_text:>6} {flag}")
    if not args.trace:
        print("\nall spreads below a third of their bounds" if steady
              else "\nsome spreads exceed a third of their bounds")


if __name__ == "__main__":
    main()
