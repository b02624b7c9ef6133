#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--smoke] [--corrupt-expected]

Run from the root of a checkout. The engine sources (src/) and the
benchmark binary (perfbench/src/) are compiled with CMake into
.bench_build/perfbench; later runs only re-check the build. Build output
goes to stderr, so the last line of stdout is the binary's JSON result.
Run files (WAL directories while serving, the Chrome trace of a traced
run) live in .bench_build/runs/<workload>-seed<n>-trace<t>/.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tuffy_perfbench")
WORKLOADS = ("batch_ground", "batch_search", "serve_rc", "learn_rc")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def build():
    """Configures (once) and builds the binary; returns True on success."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no engine sources at %s/src" % ROOT, file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print("perfbench: %s: %s" % (cmd[0], err), file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", "runs", "%s-seed%d-trace%s"
                            % (args.workload, args.seed, args.trace))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        # WAL directories are removed by the binary; drop any a failed run
        # left behind, keep the trace files.
        shutil.rmtree(os.path.join(work_dir, "wal"), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
