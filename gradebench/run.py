#!/usr/bin/env python3
"""Build gradebench from the sources beside it, then run it.

    python3 gradebench/run.py --workload cold_mix --seed 1 --seconds 25 --trace 0
    python3 gradebench/run.py --workload cold_mix --held-out --seconds 25 --trace 0

Run from the root of a cs31kit checkout. The build goes to .bench_build/gradebench
(RelWithDebInfo, the tier-1 build type); its output goes to stderr, so the last
line on stdout is the benchmark's result object. Without the kit's sources
beside it, the script exits 2 before building anything.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "gradebench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [] if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) else [configure]
    steps.append(["cmake", "--build", BUILD, "--target", "gradebench", "-j", jobs])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "grader", "service.hpp")):
        print("gradebench: no cs31kit sources at %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        build()
    except (subprocess.SubprocessError, OSError) as err:
        print("gradebench: build failed: %s" % err, file=sys.stderr)
        return 2
    try:
        return subprocess.run([os.path.join(BUILD, "gradebench")] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("gradebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
