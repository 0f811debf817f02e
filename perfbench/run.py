#!/usr/bin/env python3
"""Build the qcongest end-to-end benchmark from source and run one workload.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload svc-cold|paper-sweep \
      --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; caches, journals and span dumps live under that directory too and
nothing else is written. The last line of stdout is the JSON result of
perfbench/main.cpp. Exits non-zero, without a result, if the build, the
benchmark's self-tests or the run fail.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("svc-cold", "paper-sweep")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build; cmake's output goes to stderr."""
    cmake_dir = os.path.join(build_dir, "cmake")
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1),
         "--target", "qcongest_perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(cmake_dir, "qcongest_perfbench")


def run(cmd, **kwargs):
    """Run to completion or kill at the timeout; returns the exit code."""
    with subprocess.Popen(cmd, cwd=ROOT, **kwargs) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"timed out after {RUN_TIMEOUT_S} s: {cmd[0]}")
            return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1
    if run([binary, "--self-test"], stdout=sys.stderr) != 0:
        log("self-tests failed")
        return 1

    tmp_dir = os.path.join(build_dir, "tmp")
    shutil.rmtree(tmp_dir, ignore_errors=True)  # debris of a killed run
    os.makedirs(tmp_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--tmp-dir", tmp_dir]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    code = run(cmd)
    shutil.rmtree(tmp_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
