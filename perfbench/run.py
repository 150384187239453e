#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 20 --trace 0

The build (CMake + Ninja, RelWithDebInfo) lives in .bench_build/perfbench and
is refreshed on every call, so the first call compiles the library modules
and later calls only relink what changed. Build output goes to stderr. All
arguments are passed to the perfbench binary, which then replaces this
process: its last stdout line is the JSON result and its exit code is the
run's.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "sharded_engine.h")):
        sys.exit("perfbench: no library sources under %s/src" % ROOT)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", OUT]
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process, so no child outlives a caller that stops it.
    os.chdir(ROOT)
    binary = os.path.join(BUILD, "perfbench")
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
