#!/usr/bin/env python3
"""Steadiness check for upsbench: run each workload in two sets of runs.

    python3 upsbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

Set A uses seeds 1 .. runs and set B seeds runs+1 .. 2*runs; runs of the
two sets alternate. For every end-to-end metric and
workload it prints each set's median, quartiles and spread (the distance
between the quartiles as a share of the median), and the shift of set B's
median against set A's in the metric's worse direction. It fails (exit 1)
when a run fails or reports correct=false, when the share of failed
operations differs between the sets, when a spread other than setup_s's
exceeds the metric's bound, or when a shift exceeds it (setup_s's spread
is printed but not checked: it is one cold sample per run). Spreads above a
third of the bound are flagged as "wide". All results are saved to
.bench_out/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "upsbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = ap.parse_args()

    metrics = spec["end_to_end"]
    ok = True
    saved = {}
    for workload in a.workloads.split(","):
        runs = [[], []]
        for i in range(a.runs):
            for s in range(2):
                seed = 1 + s * a.runs + i
                r = run_once(workload, seed, a.seconds)
                if r is None:
                    print("%s seed %d: run failed" % (workload, seed))
                    ok = False
                    continue
                runs[s].append(r)
        saved[workload] = runs
        if any(not r for r in runs):
            continue
        print("== %s: %d runs per set, %d s each" % (workload, a.runs,
                                                     a.seconds))
        shares = [sorted({r["failed"] / r["attempted"] for r in rs})
                  for rs in runs]
        print("   failed share per set: %s" % shares)
        if len({tuple(s) for s in shares}) != 1 or len(shares[0]) != 1:
            print("   FAIL: failed share differs between runs")
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            line = "   %-12s" % name
            meds = []
            for rs in runs:
                q1, med, q3 = quartiles([r["metrics"][name]["value"]
                                         for r in rs])
                spread = (q3 - q1) / med
                meds.append(med)
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, ok = " FAIL", False
                elif name != "setup_s" and spread > bound / 3:
                    flag = " wide"
                line += "  med %.6g [%.6g, %.6g] spread %.3f%s" % (
                    med, q1, q3, spread, flag)
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            line += "  shift %+.3f (bound %.2f)" % (worse, bound)
            if worse > bound:
                line += " FAIL"
                ok = False
            print(line)

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    out = os.path.join(ROOT, ".bench_out",
                       "steady-%d.json" % int(time.time()))
    with open(out, "w") as f:
        json.dump(saved, f)
    print("results: %s" % out)
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
