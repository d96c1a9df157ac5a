#!/usr/bin/env python3
"""Build and run the upsbench record/replay benchmark.

    python3 upsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the benchmark from
source into .bench_build/upsbench (CMake, Release), runs one workload for S
seconds, and prints one JSON object as the last line of standard output:
correct, attempted, failed and the metrics (end-to-end with --trace 0,
per-layer with --trace 1). Traces, span files and a copy of the result go
to .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "upsbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("i2-table1", "rocketfuel-sweep", "fattree-tcp")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("upsbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "replay_experiment.h")):
        fail("library sources (src/) not found next to upsbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "upsbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--parallel", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "upsbench"), "--workload=" + a.workload,
           "--seed=%d" % a.seed, "--seconds=%d" % a.seconds,
           "--trace=%d" % a.trace, "--out-dir=" + OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result (exit code %d)" % proc.returncode)
    result = json.loads(lines[-1])
    missing = expected_names(a.trace) ^ set(result["metrics"])
    if missing and result["correct"]:
        result["correct"] = False
        print("upsbench: metric names differ from BENCHMARK.json: %s"
              % sorted(missing), file=sys.stderr)

    line = json.dumps(result)
    name = "result-%s-s%d-t%d.json" % (a.workload, a.seed, a.trace)
    with open(os.path.join(OUT, name), "w") as f:
        f.write(line + "\n")
    print(line)
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
