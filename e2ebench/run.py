#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload read_fig12 --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The first run configures and builds
the simulator and the benchmark binary (Release, out of tree) into the
directory named by $CARGO_TARGET_DIR, or .bench_build when it is unset;
later runs only rebuild what changed. Build output goes to stderr; the
binary's standard output, whose last line is the JSON result, is passed
through unchanged. README.md describes the workloads and the metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["read_fig12", "write_gc", "nvme_tenants", "crash_remount"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the benchmark; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"e2ebench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"e2ebench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    binary = os.path.join(build_dir, "e2ebench")
    return binary if os.path.exists(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every measured-phase IO count "
                         "(the smoke test uses a small fraction)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0 or args.scale <= 0:
        ap.error("--seed and --seconds must be >= 0, --scale > 0")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
