#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload (see NOTES.md).

    python3 perfbench/run.py --workload sim_build --seed 1 --seconds 20 --trace 0

The last line of standard output is the result JSON. Two more modes:

    python3 perfbench/run.py --steady 10 --workload node_read --seconds 20 [--seed 11]
        runs the workload k times back to back (seeds s..s+k-1, s = --seed)
        and prints, for each end-to-end metric, its median, IQR/median and
        range/median next to its bound in BENCHMARK.json;
    python3 perfbench/run.py --selftest
        builds and runs the tests of the benchmark's own helpers.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
and every file a run writes stays under that directory.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_build", "node_read", "node_durable")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def sh(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        sh(cmd)
    sh(["cmake", "--build", out, "--target", target, "-j", str(min(4, os.cpu_count() or 1))])
    return os.path.join(out, target)


def clean_stores(work_dir):
    for store in glob.glob(os.path.join(work_dir, "store-*")):
        shutil.rmtree(store, ignore_errors=True)


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    work_dir = os.path.join(build_dir(), "out")
    os.makedirs(work_dir, exist_ok=True)
    clean_stores(work_dir)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace, "--work-dir=" + work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        code, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, stdout = 1, ""
    clean_stores(work_dir)
    return code, stdout


def quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steady(binary, workload, first_seed, k, seconds):
    bounds = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        for m in json.load(f)["end_to_end"]:
            bounds[m["name"]] = m["bound"]
    series = {}
    for seed in range(first_seed, first_seed + k):
        code, stdout = run_once(binary, workload, seed, seconds, 0)
        lines = stdout.strip().splitlines()
        if code != 0 or not lines:
            sys.exit("perfbench: run with seed %d failed" % seed)
        result = json.loads(lines[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
        for line in lines[:-1]:
            print("  " + line, flush=True)
        for name, m in result["metrics"].items():
            series.setdefault(name, []).append(m["value"])
    print("%-22s %14s %9s %9s %7s" % ("metric", "median", "iqr/med", "rng/med", "bound"))
    for name, values in series.items():
        med = statistics.median(values)
        bound = bounds.get(name, float("nan"))
        iqr = quartile_spread(values)
        flag = "FAIL" if iqr > bound else ("" if iqr < bound / 3 else "wide")
        print("%-22s %14.4f %8.1f%% %8.1f%% %6.0f%% %s" % (
            name, med, 100 * iqr, 100 * (max(values) - min(values)) / med, 100 * bound, flag))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="K", help="run K seeds and report spreads")
    p.add_argument("--selftest", action="store_true", help="test the benchmark's helpers")
    args = p.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_test")]).returncode)
    if args.workload is None:
        p.error("--workload is required")
    binary = build("perfbench")
    if args.steady:
        steady(binary, args.workload, args.seed, args.steady, args.seconds)
        return
    code, stdout = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(stdout)
    sys.exit(code)


if __name__ == "__main__":
    main()
