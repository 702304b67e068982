#!/usr/bin/env python3
"""Runs one workload of the bddfc benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the library and the
benchmark binary (Release) into the build directory: $CARGO_TARGET_DIR if
set, else .bench_build. Each call then runs the workload in a fresh process,
so its peak RSS is that workload's own. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
status is non-zero when the build fails, an output check fails or an
operation fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("tc-tournament", "onto-materialize", "serve-mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def cached_source_dir(out):
    """The source directory the build directory was configured for, if any."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        return None
    return ""


def build(out):
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no bddfc sources next to perfbench/", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured_for = cached_source_dir(out)
    if configured_for is None:
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    elif os.path.realpath(configured_for) != os.path.realpath(BENCH_DIR):
        # Building there would build the other checkout's sources.
        print("perfbench: %s was configured for %s, not %s; set "
              "CARGO_TARGET_DIR to a build directory of this checkout"
              % (out, configured_for, BENCH_DIR), file=sys.stderr)
        return None
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "bddfc_perfbench"])
    # Compiler scratch files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return None
    return os.path.join(out, "bddfc_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
