#!/usr/bin/env python3
"""Flow benchmark entry point: builds flowbench from source, runs one workload.

Usage, from the root of the repository:

    python3 flowbench/run.py --workload table5_d1_d10 --seed 1 --seconds 20 --trace 0

Workloads: table5_d1_d10, closure_50k, eco_session_50k. Extra options are
passed to the benchmark binary: --design-seed D (1 = the EXPERIMENTS.md designs,
2 = held out), --smoke (tiny designs), --trace-out FILE.

The build goes to .bench_build/flowbench (Release). The last line of
standard output is the result JSON; a failed build or run prints no result
and exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "flowbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"flowbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to flowbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "flowbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--design-seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0 or args.design_seed < 1:
        fail("--seed and --seconds must be >= 0, --design-seed >= 1")

    build()
    cmd = [os.path.join(BUILD, "flowbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--design-seed", str(args.design_seed),
           "--describe", describe()]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--trace-out", args.trace_out or os.path.join(
            BUILD, f"trace-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"flowbench exited with code {run.returncode}")
    raw = json.loads(lines[-1])
    if set(raw) != {"correct", "attempted", "failed", "values"}:
        fail("malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result_line(raw, args.trace)))


def result_line(raw, trace):
    """The result line: BENCHMARK.json's metrics for this mode, in
    its order and with its units, valued from the binary's output."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    known = bench["end_to_end"] + bench["per_layer"]
    unknown = set(raw["values"]) - {m["name"] for m in known}
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(sorted(unknown)))
    metrics = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        value = raw["values"].get(m["name"])
        if value is None:
            if not trace:
                fail(f"workload left {m['name']} unset")
            # A per-layer metric a workload leaves unset is 0: it makes no
            # call of that kind (README, "Per-layer metrics").
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


if __name__ == "__main__":
    main()
