#!/usr/bin/env python3
"""Builds the benchmark driver and runs one workload of it.

    python3 perfbench/run.py --workload agg|ord|serve_mix --seed N \
        --seconds S --trace 0|1

Run from the root of the repository. The driver is built with CMake in
$CARGO_TARGET_DIR (default .bench_build) against the fdb_core library of
the repository's Release build. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones, and the run
spends its first third untraced, to report trace.overhead_ms.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
POOL_THREADS = 4  # the engine's TaskPool size, set explicitly
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "fdb")):
        log("the repository's sources are not next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(POOL_THREADS),
                  "--target", "perfbench", "perfbench_traced"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_driver(binary, args, seconds, build_dir):
    """Runs one driver process; echoes its output but the last line, which
    it returns parsed."""
    work_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--threads", str(POOL_THREADS),
           "--work-dir", work_dir, "--commit", commit()]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return None
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        log("driver failed with code %d" % out.returncode)
        return None
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["agg", "ord", "serve_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(os.getcwd(), build_dir)
    if not build(build_dir):
        return 1

    if not args.trace:
        result = run_driver(os.path.join(build_dir, "perfbench"), args,
                            args.seconds, build_dir)
        if result is None:
            return 1
    else:
        plain = run_driver(os.path.join(build_dir, "perfbench"), args,
                           args.seconds / 3, build_dir)
        traced = run_driver(os.path.join(build_dir, "perfbench_traced"), args,
                            args.seconds * 2 / 3, build_dir)
        if plain is None or traced is None:
            return 1
        metrics = traced["metrics"]
        traced_pass = metrics.pop("trace.pass_ms")["value"]
        metrics["trace.overhead_ms"] = {
            "value": traced_pass - plain["metrics"]["pass_ms"]["value"],
            "unit": "ms"}
        result = {"correct": plain["correct"] and traced["correct"],
                  "attempted": plain["attempted"] + traced["attempted"],
                  "failed": plain["failed"] + traced["failed"],
                  "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
