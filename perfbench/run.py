#!/usr/bin/env python3
"""Runs one workload of the HypDB repository benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt, which builds the hypdb
library from the repository's own build file) into $CARGO_TARGET_DIR or
.bench_build, generates the workload's inputs from the seed in a first
process, then runs the workload in a fresh second process. The last line
of standard output is the JSON result; the exit code is 0 only when
every answer matched its reference. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("table1_oneshot", "adult_warm_wire", "staples_ingest_wire")
RUN_TIMEOUT_S = 170


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(root):
    """Configures (once) and builds the benchmark; returns its path or None."""
    out = build_dir(root)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def run_child(cmd, **kwargs):
    """Runs `cmd` to completion; kills and reaps it if we are interrupted
    or it outlives RUN_TIMEOUT_S. Returns its exit code (None on timeout)."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def generate(binary, workload, seed, input_dir):
    """Writes the workload's inputs for `seed` into `input_dir`."""
    shutil.rmtree(input_dir, ignore_errors=True)
    os.makedirs(input_dir)
    cmd = [binary, "gen", "--workload", workload, "--seed", str(seed),
           "--dir", input_dir]
    return run_child(cmd, stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = repo_root()
    binary = build(root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    input_dir = os.path.join(out_dir, "%s-%d" % (args.workload, args.seed))
    try:
        if not generate(binary, args.workload, args.seed, input_dir):
            print("perfbench: input generation failed", file=sys.stderr)
            return 2
        cmd = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--dir", input_dir]
        if args.trace:
            cmd += ["--spans", os.path.join(
                out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
        code = run_child(cmd)
        if code is None:
            print("perfbench: workload timed out", file=sys.stderr)
            return 3
        return code
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)


if __name__ == "__main__":
    # A terminated run still stops and reaps its child (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
