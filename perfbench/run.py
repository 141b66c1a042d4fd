#!/usr/bin/env python3
"""Build the perfbench program from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-default --seed 1 \
        --seconds 20 --trace 0

The build lives in .bench_build/perfbench under the repository root and
is reused by later runs. Build output goes to stderr, so the program's
last stdout line is always its JSON result. Exits non-zero without a
result when the simulator sources are missing or the build fails.
"""

import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"


def _run(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: simulator sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not _run(cmd):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return _run(["cmake", "--build", str(BUILD), "-j", jobs])


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # The program pins the TG_* environment itself; run it from the
    # repository root so every file it writes stays in the checkout.
    return subprocess.run([str(BINARY), *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
