#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload design|reliability|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The OCaml benchmark (perfbench/main.ml) is
built with dune into _build/ (the first build compiles the libraries it
links); build output goes to stderr.  The benchmark's stdout — a human
report ending in one JSON result line — passes through unchanged, and
its exit code is returned.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    try:
        build = subprocess.run(
            # the shared dune cache is off so the build writes only inside the checkout
            [
                "dune", "build", "--root", root, "--display", "quiet", "--cache=disabled",
                "./perfbench/main.exe",
            ],
            cwd=root,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
