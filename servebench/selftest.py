#!/usr/bin/env python3
"""Self-test of the serving benchmark.

Usage, from the repository root:

  python3 servebench/selftest.py [--seconds S]

Runs every workload briefly in both modes through run.py and checks:
  - the run exits 0 and its last stdout line is a JSON object with exactly
    the keys correct, attempted, failed and metrics;
  - correct is true, failed is 0 and attempted is at least 1;
  - the metric names and units are exactly those BENCHMARK.json lists for
    the mode (end_to_end with --trace 0, per_layer with --trace 1);
  - the metadata line reports zero oracle mismatches;
  - the traced run's span file passed validation (it is reported as a
    note otherwise, which also makes correct false).
Finally it copies BENCHMARK.json and servebench/ into an empty directory
and checks that the benchmark fails there without printing a result.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "servebench", "run.py")] + args,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def check_workload(spec, workload, trace, seconds):
    errors = []
    out = run(["--workload", workload, "--seed", "7", "--seconds",
               str(seconds), "--trace", str(trace)], ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        return ["exit %d, stderr tail: %s" % (out.returncode,
                                               out.stderr[-500:])]
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    if set(result) != RESULT_KEYS:
        errors.append("result keys %s" % sorted(result))
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("correct=%s failed=%s notes=%s" % (
            result["correct"], result["failed"], meta["notes"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted=%r" % result["attempted"])
    if meta["oracle_mismatches"] != 0:
        errors.append("oracle mismatches: %s" % meta["oracle_mismatches"])
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append("metrics differ from BENCHMARK.json: missing %s, "
                      "extra %s, units %s" % (
                          sorted(set(want) - set(got)),
                          sorted(set(got) - set(want)),
                          sorted(n for n in got if n in want
                                 and got[n] != want[n])))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            errors.append("%s is not a number" % name)
    return errors


def check_bare_directory():
    """Only BENCHMARK.json and servebench/: no sources, so no result."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, ".bench_build"))
    bare = os.path.join(target, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "servebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        out = run(["--workload", "crpq_warm", "--seed", "1", "--seconds",
                   "1", "--trace", "0"], bare, env)
        if out.returncode == 0 or '"correct"' in out.stdout:
            return ["bare directory: exit %d, stdout %r" % (
                out.returncode, out.stdout[-200:])]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv):
    seconds = 2
    if len(argv) == 2 and argv[0] == "--seconds":
        seconds = float(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors = check_workload(spec, workload, trace, seconds)
            failures += bool(errors)
            print("%-14s trace=%d %s" % (workload, trace,
                                         "ok" if not errors else
                                         "FAIL: " + "; ".join(errors)))
    errors = check_bare_directory()
    failures += bool(errors)
    print("bare directory     %s" % ("ok" if not errors else
                                     "FAIL: " + "; ".join(errors)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
