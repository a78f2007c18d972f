#!/usr/bin/env python3
"""Build the por benchmark driver from source and run one workload.

    python3 porbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
the por libraries plus the driver into $CARGO_TARGET_DIR (default
.bench_build); later calls only rebuild what changed.  Build output goes
to stderr, so the driver's JSON result stays the last line of stdout.
The exit code is the driver's: 0 only when every correctness check
passed.  See porbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", build_dir, "--target", "porbench",
               "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test only (selftest.py): toy-size inputs, and a deliberately
    # corrupted result that the correctness check must reject.
    parser.add_argument("--toy", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(build_dir):
        print("porbench: build failed", file=sys.stderr)
        return 3
    command = [os.path.join(build_dir, "porbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--toy", str(args.toy), "--perturb", str(args.perturb)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
