#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources, then runs it.

    python3 ripplebench/run.py --workload topk-lossy --seed 1 --seconds 30 --trace 0

All arguments go to the ripplebench binary (see main.cc). The build lives
in .bench_build/ripplebench under the checkout root; its output goes to
standard error, so the binary's JSON stays the last line of standard
output. Exits non-zero, without a result, when the sources are missing or
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ripplebench")
BINARY = os.path.join(BUILD, "ripplebench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("ripplebench: no RIPPLE sources next to the benchmark")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("ripplebench: build failed: %s" % e)
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
