#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Every call configures and builds
perfbench/ (the library is compiled from src/) into .bench_build/perfbench;
after the first, both steps only redo what changed. Build output goes to
standard error. The measuring program's report goes to standard output, and
its last line is one JSON object with the keys correct, attempted, failed
and metrics. README.md in this directory describes the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fine-stream", "pattern-metg", "runtime-api")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds (both incremental). Returns the build
    directory; exits non-zero, printing no result, when either fails."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "3"]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.exit(f"perfbench: build step failed: {err}")
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return BUILD


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = build()
    print(f"# git sha: {git_sha()}", flush=True)
    cmd = [os.path.join(build_dir, "starbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish in "
                 f"{RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
