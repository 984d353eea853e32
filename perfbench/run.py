#!/usr/bin/env python3
"""Serving benchmark: build the repository from source, then run one
workload of the benchmark client and pass its output through.

    python3 perfbench/run.py --workload hot-small --seed 1 --seconds 30 --trace 0

The workloads and their settings are defined in perfbench/bench/inputs.ml
(perfbench/workloads.json describes them). The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is non-zero when the repository
cannot be built, a reply fails its oracle, or the run cannot finish.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LCP = os.path.join("_build", "default", "bin", "lcp.exe")
CLIENT = os.path.join("_build", "default", "perfbench", "bench", "serve_bench.exe")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s at %s: run from a full checkout of the repository" % (need, ROOT))
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ".", "--display", "quiet", "./" + LCP, "./" + CLIENT]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()

    cmd = [
        os.path.join(ROOT, CLIENT),
        "--lcp", os.path.join(ROOT, LCP),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        out = os.path.join(ROOT, ".perfbench")
        os.makedirs(out, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out, "trace-%s-%d.json" % (args.workload, args.seed))]

    # own session, so a timeout can stop the client and every daemon it spawned
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 1)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
