#!/usr/bin/env python3
"""Regenerates the flow benchmark's reference table.

Runs flowbench/run.py once per seed for each workload, one or two sets of
runs, and prints, per metric, each set's median over the seeds and its
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. With two sets it also
prints the drift: how much worse the second median is than the first, as a
share of the first.

The exit code is 1 when an end-to-end metric fails the benchmark's
acceptance test: a spread above its bound in BENCHMARK.json, a drift above
its bound, or a share of failed operations that differs between runs. The
spread of setup_s is printed but not tested: its bound limits how far the
median may move (a change that moves work into set-up shows there), and a
run sets up only three times, so its spread is wider than that of the
measured work. Spreads above a third of the bound, the steadiness the
benchmark aims for, are marked in the table.

    python3 flowbench/reference.py                        # all workloads, seeds 1..10
    python3 flowbench/reference.py --sets 2               # two sets, with drift
    python3 flowbench/reference.py --workloads closure_50k --seeds 1,2,3 --trace 1
    python3 flowbench/reference.py --design-seed 2        # the held-out designs
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace, design_seed):
    cmd = [sys.executable, os.path.join(ROOT, "flowbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--design-seed",
           str(design_seed)]
    start = time.time()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr[-3000:]}")
    return json.loads(out.stdout.splitlines()[-1]), time.time() - start


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def run_set(workload, seeds, bench, args):
    values, shares, counts, elapsed = {}, set(), [], []
    for seed in seeds:
        result, seconds = run_once(workload, seed, bench["run_seconds"],
                                   args.trace, args.design_seed)
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed}: correct is false")
        shares.add(Fraction(result["failed"], result["attempted"]))
        counts.append(f"{result['failed']}/{result['attempted']}")
        elapsed.append(seconds)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"failed/attempted per run: {', '.join(counts)}; wall time per "
          f"run {min(elapsed):.0f}-{max(elapsed):.0f} s")
    return values, shares


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--design-seed", type=int, default=1)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    accepted = True
    for workload in args.workloads.split(","):
        print(f"\n### {workload} (design seed {args.design_seed}, seeds "
              f"{args.seeds}, {args.sets} set(s), trace {args.trace})\n")
        sets = [run_set(workload, seeds, bench, args) for _ in range(args.sets)]
        shares = set().union(*(s for _, s in sets))
        if len(shares) > 1:
            print("FAIL: the share of failed operations differs between runs")
            accepted = False
        head = "| metric | unit |"
        for k in range(1, args.sets + 1):
            head += f" median {k} | spread {k} |"
        head += (" drift |" if args.sets == 2 else "") + " bound |"
        print("\n" + head)
        print("|---" * (head.count("|") - 1) + "|")
        for name in sets[0][0]:
            m = metrics[name]
            bound = m.get("bound")
            row = f"| {name} | {m['unit']} |"
            meds = []
            for values, _ in sets:
                med, sp = spread(values[name])
                meds.append(med)
                mark = ""
                if bound is not None and name != "setup_s":
                    if sp > bound:
                        mark = " FAIL"
                        accepted = False
                    elif sp > bound / 3:
                        mark = " (over a third of the bound)"
                row += f" {med:.6g} | {sp:.3f}{mark} |"
            if args.sets == 2:
                worse = meds[1] - meds[0]
                if m["better"] == "higher":
                    worse = -worse
                drift = worse / meds[0] if meds[0] else 0.0
                mark = ""
                if bound is not None and drift > bound:
                    mark = " FAIL"
                    accepted = False
                row += f" {drift:+.3f}{mark} |"
            row += f" {'' if bound is None else bound} |"
            print(row)
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
