#!/usr/bin/env python3
"""Build and run the repository benchmark on one workload.

    python3 perfbench/run.py --workload bare-cpu --seed 7 --seconds 10 --trace 0

Run from the root of a checkout.  The benchmark executable
(perfbench/main.ml) is built from source with dune, run once, and its
result line is checked against BENCHMARK.json: every metric the mode
promises (end-to-end with --trace 0, per-layer with --trace 1) must be
present, finite and carry its declared unit.  The last line printed is
the result JSON; the exit code is 0 only when the run was correct.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Return a list of problems with one result line."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    metrics = result["metrics"]
    for name in sorted(set(metrics) - set(expected)):
        problems.append("unexpected metric %s" % name)
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append("missing metric %s" % name)
            continue
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append("metric %s is not a finite number: %r" % (name, v))
        if m.get("unit") != unit:
            problems.append("metric %s has unit %r, expected %r" % (name, m.get("unit"), unit))
    return problems


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        die("cannot run dune: %s" % e, 2)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed", 2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["bare-cpu", "vm-trap", "fleet-cold"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb one reference result; the run must then fail")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0", 2)
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        die("BENCHMARK.json not found at the checkout root", 2)
    expected = expected_metrics(args.trace)
    load = ",".join("%.2f" % x for x in os.getloadavg())
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--loadavg", load, "--out", os.path.join(ROOT, "perfbench", "out")]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if not lines:
        die("benchmark printed nothing (exit %d)" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("last line is not JSON: %r" % lines[-1])
    problems = check_result(result, expected)
    if problems:
        die("; ".join(problems))
    for line in lines:
        print(line)
    if r.returncode != 0 or not result["correct"] or result["failed"] != 0:
        die("run was not correct (exit %d)" % r.returncode)


if __name__ == "__main__":
    main()
