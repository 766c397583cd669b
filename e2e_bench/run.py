#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload pinsage-reddit --seed 1 --seconds 15 --trace 0

The CMake project in this directory compiles the FlexGraph libraries from
../src into .bench_build/e2e_bench and links the e2e_bench driver; build
output goes to stderr. The driver then runs as a child of this process and
writes to the same stdout, so its last line (one JSON object) is the
benchmark result; its exit code is the run's. It is not exec'd in place of
this process: getrusage(RUSAGE_CHILDREN) survives exec, so the compiler's
peak RSS would show in the driver's peak_rss_mb. A failed build exits 1
without printing a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
BUILD_JOBS = "4"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: FlexGraph sources (src/) not found next to e2e_bench/", file=sys.stderr)
        return False
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "e2e_bench", "-j", BUILD_JOBS],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("error: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    spans_dir = os.path.join(BUILD_DIR, "spans")
    driver = subprocess.Popen([BINARY] + sys.argv[1:] + ["--spans-dir", spans_dir])
    # A SIGTERM meant for the run reaches the driver, and this process still
    # waits for it to end.
    signal.signal(signal.SIGTERM, lambda signum, frame: driver.send_signal(signum))
    code = driver.wait()
    return code if code >= 0 else 128 - code  # killed by a signal: 128 + its number


if __name__ == "__main__":
    sys.exit(main())
