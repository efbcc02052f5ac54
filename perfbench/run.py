#!/usr/bin/env python3
"""Serving benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 12 --trace 0

Run from the repository root. The engine library is compiled from ../src
into $CARGO_TARGET_DIR (default .bench_build) by perfbench/CMakeLists.txt;
engine files live in a scratch directory under the same build directory and
are removed afterwards. Workload inputs (rows, op mix, fixed offered rates)
come from perfbench/workloads.json.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is non-zero when the build fails, the run
fails, or any result is wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("perfbench: cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run([cmake, "--build", build_dir, "-j", str(os.cpu_count() or 2)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    if args.workload not in spec:
        sys.exit("perfbench: unknown workload %r (have: %s)" %
                 (args.workload, ", ".join(spec)))
    w = spec[args.workload]

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(os.path.join(root, target)),
                             "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)

    data_dir = os.path.join(build_dir, "data-%s-%d" % (args.workload,
                                                       os.getpid()))
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    cmd = [
        binary,
        "--workload=%s" % args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--dir=%s" % data_dir,
        "--rows=%d" % w["rows"],
        "--put_share=%g" % w["put_share"],
        "--rate_ops=%g" % w["rate_ops"],
        "--max_sat_ops=%g" % w["max_sat_ops"],
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: run failed (exit %d) without a result" %
                 proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
