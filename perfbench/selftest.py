#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run it from the repository root. It builds perfbench/ (see run.py), runs
the C++ self-test of the benchmark's statistics and seed handling, then
runs every workload briefly, traced and untraced, and checks that every
metric the benchmark prints is declared in BENCHMARK.json, that the result
line carries exactly the declared set, and that an injected check failure
gives a non-zero exit. Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

import run

SHORT_SECONDS = "1"
TABLE_ROW = re.compile(r"^([A-Za-z0-9][A-Za-z0-9_.\-]*)\s+-?[0-9][0-9.e+\-]*\s+\S+\s+\d+")


def fail(why):
    sys.exit(f"selftest: FAIL: {why}")


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return ([m["name"] for m in bench["end_to_end"]],
            [m["name"] for m in bench["per_layer"]],
            [w["name"] for w in bench["workloads"]])


def starbench(build_dir, *args):
    return subprocess.run([os.path.join(build_dir, "starbench"), *args],
                          capture_output=True, text=True, timeout=120,
                          check=False)


def result_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def main():
    build_dir = run.build()
    unit = subprocess.run([os.path.join(build_dir, "starbench_selftest")],
                          check=False)
    if unit.returncode != 0:
        fail("starbench_selftest")

    end_to_end, per_layer, workloads = declared()
    if tuple(workloads) != run.WORKLOADS:
        fail(f"BENCHMARK.json workloads {workloads} != run.py {run.WORKLOADS}")
    everything = set(end_to_end) | set(per_layer)
    for workload in workloads:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            done = starbench(build_dir, "--workload", workload, "--seed", "7",
                             "--seconds", SHORT_SECONDS, "--trace", str(trace))
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                fail(f"{where} exited {done.returncode}:\n{done.stdout}")
            result = result_line(done.stdout)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                fail(f"{where}: checks failed")
            if sorted(result["metrics"]) != sorted(expected):
                fail(f"{where}: result metrics differ from BENCHMARK.json")
            printed = [m.group(1) for line in done.stdout.splitlines()
                       if (m := TABLE_ROW.match(line))]
            undeclared = sorted(set(printed) - everything)
            if undeclared or "# undeclared:" in done.stdout:
                fail(f"{where}: printed undeclared metrics {undeclared}")
            print(f"ok   {where}: {len(printed)} printed metrics declared")

    done = starbench(build_dir, "--workload", "runtime-api", "--seed", "7",
                     "--seconds", SHORT_SECONDS, "--trace", "0",
                     "--inject-failure")
    result = result_line(done.stdout)
    if done.returncode == 0 or result["correct"] or result["failed"] < 1:
        fail("an injected check failure did not fail the run")
    print("ok   injected check failure gives a non-zero exit")

    done = starbench(build_dir, "--workload", "fine-stream", "--seconds", "1",
                     "--trace", "0")
    if done.returncode == 0:
        fail("a missing --seed was accepted")
    print("ok   usage errors give a non-zero exit")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
