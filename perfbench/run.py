#!/usr/bin/env python3
"""Builds the perfbench binary against the library sources of this checkout
and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The build (CMake, Release) lives in perfbench/build and is incremental; the
first run in a fresh checkout compiles the library's Smith-Waterman modules.
The last line of standard output is the benchmark's JSON result.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT_REL = os.path.join("perfbench", "out")
BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 120


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def run(argv, timeout_s):
    """Runs the binary in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        out = None
    finally:
        # The binary removes its scratch directory itself; this covers a
        # binary that was killed.
        shutil.rmtree(os.path.join(ROOT, OUT_REL, "run-%d" % proc.pid), ignore_errors=True)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        return fail("--workload is required")

    for needed in ("CMakeLists.txt", os.path.join("src", "sw", "pipeline.hpp"),
                   os.path.join("src", "service", "server.hpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail("library sources not found (%s is missing); run from a "
                        "full checkout of the repository" % needed)
    if shutil.which("cmake") is None:
        return fail("cmake is not installed")
    try:
        if not build():
            return fail("build failed")
    except subprocess.TimeoutExpired:
        return fail("build timed out")

    binary = os.path.join(BUILD, "perfbench")
    if args.self_test:
        code, out = run([binary, "--self-test"], RUN_SLACK_S)
        sys.stdout.write(out or "")
        return code if code else 0

    os.makedirs(os.path.join(ROOT, OUT_REL), exist_ok=True)
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    code, out = run(argv, args.seconds + RUN_SLACK_S)
    if out is None:
        return fail("benchmark binary timed out")
    sys.stdout.write(out)
    if code != 0:
        return fail("benchmark binary exited with code %d" % code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
