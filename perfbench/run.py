#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench
(incremental after the first run); build output goes to stderr so the last
line of stdout stays the driver's JSON result. Exits nonzero without a
result when the build fails, e.g. when the library sources are missing.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", BUILD, "--target", "sapbench", "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)


def main():
    build()
    exe = os.path.join(BUILD, "sapbench")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
