#!/usr/bin/env python3
"""Builds the crackbench binary from the repository's sources and runs it.

Usage, from the repository root:

    python3 crackbench/run.py --workload serve-rw --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/crackbench (default .bench_build/crackbench),
with all build output on stderr. The binary's stdout passes through unchanged,
so its last line is the JSON result. The exit code is the binary's; a failed
build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("crackbench: build step timed out: %s" % " ".join(cmd),
              file=sys.stderr)
        return 1


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_quiet(configure, BUILD_TIMEOUT_S) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs],
                     BUILD_TIMEOUT_S) == 0


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "crackbench")
    if not build(build_dir):
        print("crackbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "crackbench")
    proc = subprocess.Popen([binary] + sys.argv[1:])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("crackbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
