#!/usr/bin/env python3
"""Count gate: machine-independent work counts must match the committed ones.

    python3 scripts/count_gate.py [--base REF]

Runs the end-to-end benchmark traced for a fixed seed with no time budget
(`e2ebench/run.py --workload W --seed 1 --seconds 0 --trace 1`, built into
$CARGO_TARGET_DIR) on each workload in bench/count_gate.json and compares
the counts listed there:

  - equal to the committed value: pass;
  - lower: fail until bench/count_gate.json records the new value (so a
    drop lands together with the file that locks it in);
  - higher: fail.

The counts are exact for a given seed, so the verdict is the same on any
machine. One exception: allocations depend on the C++ standard library, so
sim.allocs_per_io is compared only when the compiler matches the one the
file records; otherwise it is reported and skipped.

With --base REF (a git revision, e.g. the merge base of a pull request),
the committed values must also be no higher than REF's, so a change cannot
raise a count by editing the file.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join("bench", "count_gate.json")
ALLOCS = "sim.allocs_per_io"
REL_TOL = 1e-9


def compiler_id():
    """"gcc X.Y.Z" or "clang X.Y.Z" for the C++ compiler CMake would use."""
    cxx = os.environ.get("CXX", "c++")
    try:
        banner = subprocess.run([cxx, "--version"], capture_output=True,
                                text=True, check=True).stdout
        version = subprocess.run([cxx, "-dumpfullversion"],
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return ("clang " if "clang" in banner else "gcc ") + version


def measure(workload):
    """The traced run's metrics for @p workload, or None on failure."""
    cmd = [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    if done.returncode != 0 or not done.stdout.strip():
        print(f"count gate: {workload}: benchmark run failed "
              f"(exit {done.returncode})", file=sys.stderr)
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result.get("correct"):
        print(f"count gate: {workload}: benchmark output check failed",
              file=sys.stderr)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def same(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="git revision whose committed counts "
                    "the current file may not exceed")
    args = ap.parse_args()

    with open(os.path.join(ROOT, GATE)) as f:
        gate = json.load(f)
    compiler = compiler_id()
    check_allocs = compiler == gate["compiler"]
    if not check_allocs:
        print(f"count gate: compiler is {compiler}, {GATE} was recorded "
              f"with {gate['compiler']}: {ALLOCS} is reported, not gated")

    failures = []
    if args.base:
        shown = subprocess.run(["git", "show", f"{args.base}:{GATE}"],
                               cwd=ROOT, capture_output=True, text=True,
                               check=False)
        if shown.returncode == 0:
            base = json.loads(shown.stdout)
            for wl, counts in gate["workloads"].items():
                for name, value in counts.items():
                    old = base["workloads"].get(wl, {}).get(name)
                    if old is not None and value > old and \
                            not same(value, old):
                        failures.append(f"{wl} {name}: {GATE} raises it "
                                        f"from {old} to {value}")

    for wl, counts in gate["workloads"].items():
        got = measure(wl)
        if got is None:
            failures.append(f"{wl}: no result")
            continue
        for name, want in counts.items():
            have = got.get(name)
            if have is None:
                failures.append(f"{wl} {name}: not reported")
                continue
            verdict = "ok"
            if not same(have, want):
                verdict = "LOWER" if have < want else "HIGHER"
            if name == ALLOCS and not check_allocs:
                verdict = "not gated"
            print(f"  {wl:14s} {name:22s} committed {want:<20} "
                  f"measured {have:<20} {verdict}")
            if verdict == "LOWER":
                failures.append(f"{wl} {name} fell to {have}: record it "
                                f"in {GATE}")
            elif verdict == "HIGHER":
                failures.append(f"{wl} {name} rose from {want} to {have}")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
