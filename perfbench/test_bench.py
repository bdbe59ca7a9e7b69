#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Run from the root of a checkout (takes about two minutes).  Checks that:
  - every workload prints every metric BENCHMARK.json names, finite and
    with its unit, in both the end-to-end and the traced run, with no
    failed run;
  - one seed gives the same job list and the same simulated results in
    two invocations, and another seed gives other inputs;
  - a deliberately corrupted reference makes the command fail;
  - without the simulator's sources the command fails without printing
    a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

WORKLOADS = ["bare-cpu", "vm-trap", "fleet-cold"]
failures = []


def bench(workload, seed, trace, *extra, cwd=ROOT):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    r = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=400)
    return r.returncode, r.stdout.strip().splitlines(), r.stderr


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def test_metrics():
    for w in WORKLOADS:
        for trace in (0, 1):
            rc, lines, err = bench(w, 3, trace)
            name = "%s --trace %d" % (w, trace)
            if rc != 0 or not lines:
                expect(False, "%s exits 0 (%d): %s" % (name, rc, err.strip()[-300:]))
                continue
            result = json.loads(lines[-1])
            problems = run.check_result(result, run.expected_metrics(trace))
            expect(not problems, "%s prints every metric with its unit %s" % (name, problems or ""))
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   "%s has no failed run" % name)


def digests(workload, seed):
    rc, lines, _ = bench(workload, seed, 0)
    if rc != 0 or len(lines) < 2:
        return None
    detail = json.loads(lines[-2])
    return detail["inputs_digest"], detail["sim_digest"]


def test_seed():
    a, b, c = digests("bare-cpu", 5), digests("bare-cpu", 5), digests("bare-cpu", 6)
    expect(a is not None and a == b, "one seed gives identical job list and simulated counts")
    expect(a is not None and c is not None and a[0] != c[0] and a[1] != c[1],
           "another seed gives other inputs")


def test_corrupt_reference():
    rc, lines, _ = bench("bare-cpu", 3, 0, "--corrupt-reference")
    result = json.loads(lines[-1]) if lines else {}
    expect(rc != 0 and result.get("correct") is False and result.get("failed", 0) > 0,
           "a corrupted reference fails the run")


def test_without_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for f in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, f)):
            shutil.copy(os.path.join(HERE, f), os.path.join(bare, "perfbench"))
    rc, lines, _ = bench("bare-cpu", 3, 0, cwd=bare)
    printed_result = any(line.startswith('{"correct"') for line in lines)
    expect(rc != 0 and not printed_result, "without sources the command fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_metrics()
    test_seed()
    test_corrupt_reference()
    test_without_sources()
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)
