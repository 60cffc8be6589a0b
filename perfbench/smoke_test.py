#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny simulation length.

    python3 perfbench/smoke_test.py

Checks, for every workload, untraced and traced:
  - the run exits 0 and its last line is the result object;
  - every metric BENCHMARK.json names is printed, with its unit, and no
    other metric is;
  - no run fails its output check.
Also checks that one planted wrong result is counted as exactly one
failure, and that a set NURAPID_* variable makes the benchmark refuse to
run. Exits 0 when everything holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, extra=(), env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []

    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            tag = "%s --trace %d" % (w, trace)
            proc = run(w, trace)
            if proc.returncode != 0:
                problems.append("%s: exit %d\n%s" % (tag, proc.returncode,
                                                     proc.stderr[-2000:]))
                continue
            res = result_of(proc)
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append("%s: metrics missing %s, unexpected %s, "
                                "wrong unit %s" % (tag, missing, extra,
                                                   wrong))
            for k, v in res["metrics"].items():
                if not isinstance(v.get("value"), (int, float)):
                    problems.append("%s: %s has no numeric value" % (tag, k))
            if res["failed"] != 0 or not res["correct"] or \
                    res["attempted"] < 1:
                problems.append("%s: %d of %d runs failed\n%s" % (
                    tag, res["failed"], res["attempted"], proc.stdout))
            print("ok  %-32s attempted %d" % (tag, res["attempted"]))

    proc = run("paper_orgs", 0, extra=["--corrupt"])
    res = result_of(proc) if proc.returncode == 0 else None
    if not res or res["failed"] != 1 or res["correct"]:
        problems.append("planted wrong result was not counted as failed: %s"
                        % (res,))
    else:
        print("ok  planted wrong result counted (failed %d of %d)"
              % (res["failed"], res["attempted"]))

    env = dict(os.environ, NURAPID_JOBS="1")
    proc = run("paper_orgs", 0, env=env)
    if proc.returncode == 0:
        problems.append("ran with NURAPID_JOBS set")
    else:
        print("ok  refuses to run with NURAPID_JOBS set")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
