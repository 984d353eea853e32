#!/usr/bin/env python3
"""Steadiness report: run one workload N times (a new seed each time)
and print, per end-to-end metric, the median, the quartiles and the
spread (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload hot-small --runs 10
    python3 perfbench/steady.py --workload hot-small --runs 10 \\
        --build ../parent --build .

With two --build checkouts (parent first, change second) every seed
runs on both, alternating which goes first, and the report adds the
change's median against the parent's: a metric is flagged when it is
worse by more than its bound. A spread is flagged when it exceeds a
third of the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(build, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=build, stdout=subprocess.PIPE, text=True)
    last = r.stdout.rstrip("\n").split("\n")[-1] if r.stdout else ""
    if r.returncode != 0:
        sys.exit("run failed (%s, seed %d, exit %d): %s" % (build, seed, r.returncode, last))
    result = json.loads(last)
    lines = r.stdout.split("\n")
    steal = [l.split(": ", 1)[1] for l in lines if l.startswith("host steal during")]
    return ({k: v["value"] for k, v in result["metrics"].items()}, result["failed"],
            steal[0] if steal else "?")


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--build", action="append", default=[],
                    help="checkout to run (repeat twice: parent, then change)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    builds = [os.path.abspath(b) for b in (args.build or [ROOT])]
    if len(builds) > 2 or args.runs < 2:
        sys.exit("give at most two --build checkouts and at least two runs")

    values = {b: {m["name"]: [] for m in metrics} for b in builds}
    failed = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        for b in (builds if i % 2 == 0 else builds[::-1]):
            got, nfailed, steal = run_once(b, args.workload, seed, seconds)
            failed += nfailed
            for m in metrics:
                values[b][m["name"]].append(got[m["name"]])
            print("run %d seed %d %s (host steal %s): %s" % (
                i + 1, seed, os.path.basename(b) or b, steal, " ".join(
                    "%s=%.4g" % (m["name"], got[m["name"]]) for m in metrics)), flush=True)

    print("\n%s: %d runs per build, %d failed ops" % (args.workload, args.runs, failed))
    header = "%-22s %12s %12s %12s %8s %6s %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "")
    for b in builds:
        print("\n[%s]\n%s" % (b, header))
        for m in metrics:
            med, q1, q3, spread = summary(values[b][m["name"]])
            flag = "" if spread <= m["bound"] / 3 else "SPREAD > bound/3"
            print("%-22s %12.5g %12.5g %12.5g %8.4f %6.2f %s" % (
                m["name"], med, q1, q3, spread, m["bound"], flag))
    if len(builds) == 2:
        parent, change = builds
        print("\nchange vs parent (share of the parent's median; + is worse)")
        for m in metrics:
            p = statistics.median(values[parent][m["name"]])
            c = statistics.median(values[change][m["name"]])
            worse = (c - p) / p if m["better"] == "lower" else (p - c) / p
            flag = "WORSE than bound" if worse > m["bound"] else ""
            print("%-22s %12.5g %12.5g %+8.4f %6.2f %s" % (
                m["name"], p, c, worse, m["bound"], flag))


if __name__ == "__main__":
    main()
