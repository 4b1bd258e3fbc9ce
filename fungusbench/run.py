#!/usr/bin/env python3
"""End-to-end benchmark of fungusd.

    python3 fungusbench/run.py --workload scan_agg --seed 1 --seconds 20 --trace 0

Run from the root of a FungusDB source tree. The first run configures and
builds fungusd and the load generator (fungusbench_gen) into
.bench_build/ (or $CARGO_TARGET_DIR when set); later runs rebuild only
what changed. The generator then spawns fungusd, drives it over the wire
and prints, as the last line of standard output, one JSON object with
the keys correct, attempted, failed and metrics. See
fungusbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("scan_agg", "ingest_decay", "mixed_consume")
# The generator bounds its own time; this is a backstop so a hung run
# still ends in under three minutes.
RUN_TIMEOUT_S = 170


def fail(message):
    print("fungusbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures once, then builds fungusd and the generator."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        fail("no FungusDB sources around " + root + "; run from a source tree")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "fungusbench"),
                      "-B", build_dir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "fungusd", "fungusbench_gen"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "cmake")
    build(root, build_dir)
    work_dir = os.path.join(os.path.dirname(build_dir), "run")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "fungusbench_gen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--fungusd", os.path.join(build_dir, "fungusdb", "tools", "fungusd"),
           "--work-dir", work_dir]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # fungusd dies with the generator (PR_SET_PDEATHSIG).
        proc.kill()
        proc.wait()
        fail("generator timed out after %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
