#!/usr/bin/env python3
"""End-to-end benchmark of the Exterminator reproduction.

Builds the package in perfbench/ (the library sources under src/ plus the
benchmark driver) with CMake, then runs one workload and forwards its
report:

    python3 perfbench/run.py --workload deploy|triage|community \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build), which also holds the server state directories
while a run lasts and the span files of traced runs.  Build output goes
to standard error; the last line of standard output is the result JSON.
The exit code is non-zero when the build or the run fails, or when an
output check breaks.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run that has not ended by then is stopped (the build is not counted).
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(directory):
    """Configures and builds the benchmark; returns the binary's path."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", HERE, "-B", directory,
             "-DCMAKE_BUILD_TYPE=RelWithAsserts"],
            ["cmake", "--build", directory, "--target", "perfbench",
             "-j", str(os.cpu_count() or 1)],
        ]
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                return None
    return os.path.join(directory, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["deploy", "triage", "community"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    directory = build_dir()
    binary = build(directory)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Relative, so the Unix socket path inside stays short.
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.relpath(directory, ROOT)]
    child = subprocess.Popen(command, cwd=ROOT)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
