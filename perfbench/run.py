#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload <serve-warm|serve-cold|report-paper> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` package (release
profile) from the checkout's sources into $CARGO_TARGET_DIR (default
`.bench_build`), then runs one measurement. Build output goes to standard
error; the last line of standard output is the result object. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve-warm", "serve-cold", "report-paper")
HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    for needed in ("crates", os.path.join("reports", "table1.json")):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found under {root}; "
                  "run from a full checkout", file=sys.stderr)
            return 2

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace],
        cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
