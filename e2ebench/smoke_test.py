#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at a tiny size.

    python3 e2ebench/smoke_test.py

Run from the root of the repository. For every workload run.py accepts
(the ones BENCHMARK.json tracks, plus write_gc and crash_remount) it
runs the benchmark untraced and traced at 2% of the measured IO counts
and checks:

  - the last line of standard output is one JSON object with exactly the
    keys correct/attempted/failed/metrics, correct is true and attempted
    is at least 1;
  - every metric BENCHMARK.json names for that mode is there, once, with
    its declared unit and a finite value; end-to-end values are not zero;
  - the digest of simulated outputs is identical untraced and traced
    (each run already checks it across its own repetitions).

It also checks that the benchmark fails, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.02"
SEED = "3"


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("e2ebench", "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "0",
           "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          check=False)


def check_result(done, declared, failures, label):
    if done.returncode != 0:
        failures.append(f"{label}: exit {done.returncode}: "
                        f"{done.stderr[-400:]}")
        return None
    lines = done.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as err:
        failures.append(f"{label}: last line is not JSON ({err})")
        return None
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: keys {sorted(res)}")
        return None
    if res["correct"] is not True:
        failures.append(f"{label}: correct is {res['correct']}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and res["failed"] >= 0):
        failures.append(f"{label}: attempted/failed {res['attempted']}, "
                        f"{res['failed']}")
    got = res["metrics"]
    want = {m["name"]: m for m in declared}
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        failures.append(f"{label}: missing {missing}, unexpected {extra}")
    for name, m in got.items():
        if name not in want:
            continue
        value = m.get("value")
        if m.get("unit") != want[name]["unit"]:
            failures.append(f"{label}: {name} unit {m.get('unit')}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: {name} value {value!r}")
        elif "bound" in want[name] and value == 0:
            failures.append(f"{label}: end-to-end {name} is 0")
    digests = [l for l in lines if l.startswith("digest ")]
    return digests[-1] if digests else None


def check_needs_sources(failures):
    """The benchmark alone, without the simulator, must fail cleanly."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        done = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", "read_fig12",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180, check=False)
        if done.returncode == 0 or done.stdout.strip():
            failures.append("benchmark without the simulator sources did "
                            f"not fail cleanly (exit {done.returncode})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = [f"BENCHMARK.json workload {w['name']} unknown to run.py"
                for w in bench["workloads"] if w["name"] not in WORKLOADS]
    for name in WORKLOADS:
        plain = check_result(run(name, 0), bench["end_to_end"], failures,
                             f"{name} --trace 0")
        traced = check_result(run(name, 1), bench["per_layer"], failures,
                              f"{name} --trace 1")
        if plain is None or plain != traced:
            failures.append(f"{name}: digest {plain} untraced, {traced} "
                            "traced")
        print(f"{name}: {plain}", file=sys.stderr)
    check_needs_sources(failures)
    for f in failures:
        print("FAIL", f)
    print("smoke test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
