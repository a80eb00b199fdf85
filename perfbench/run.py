#!/usr/bin/env python3
"""Builds and runs the earthred fleet benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload warm-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench/ (and with it the repository's library
sources) into .bench_build/perfbench, runs one workload and passes the
benchmark's output through; its last stdout line is the JSON result. The
second runs the short self-test of every workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "fleetbench")
WORKLOADS = ["warm-small", "plan-churn", "dram-sweep"]
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; exits nonzero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the earthred sources (src/) are missing next to perfbench/")
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "fleetbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_benchmark(extra, capture=False):
    """Runs fleetbench once in a private work directory under .bench_build.

    Returns (exit status, stdout text or None)."""
    workdir = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    cmd = [BINARY, "--workdir=" + workdir, "--git-sha=" + git_sha()] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
        status, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        status, out = 3, None
    shutil.rmtree(workdir, ignore_errors=True)
    return status, out


def self_test():
    """Short mode of every workload: each emits exactly the metric names
    BENCHMARK.json lists, and a falsified expected digest fails the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload=" + workload, "--seed=7", "--seconds=1", "--short"]
        for trace in (0, 1):
            status, out = run_benchmark(base + ["--trace=%d" % trace], True)
            lines = (out or "").strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            names = set(result.get("metrics", {}))
            if status != 0 or not result.get("correct"):
                failures.append("%s trace=%d: status %d" % (workload, trace,
                                                            status))
            if names != wanted[trace]:
                failures.append("%s trace=%d: missing %s, unexpected %s" % (
                    workload, trace, sorted(wanted[trace] - names),
                    sorted(names - wanted[trace])))
        status, _ = run_benchmark(base + ["--trace=0", "--corrupt-digest"],
                                  True)
        if status == 0:
            failures.append(workload + ": a wrong expected digest passed")
        log("self-test %s done" % workload)
    for f in failures:
        log("FAIL " + f)
    print("self-test: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    status, _ = run_benchmark([
        "--workload=" + args.workload, "--seed=%d" % args.seed,
        "--seconds=%d" % args.seconds, "--trace=%d" % args.trace])
    return status


if __name__ == "__main__":
    sys.exit(main())
