#!/usr/bin/env python3
"""Runs the EXstream end-to-end benchmark.

    python3 perfbench/run.py --workload ingest|explain|serve --seed N \
        --seconds S --trace 0|1

Builds the library and the benchmark from source into .bench_build/ (first
run only), runs the benchmark's own tests, then one run of the workload. The
table of every metric goes to stdout; the last line is the result object with
the metrics BENCHMARK.json names: the end-to-end ones with --trace 0, the
per-layer ledger with --trace 1. Exits non-zero when an output check fails,
and without a result when the run itself cannot complete.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from a checkout")
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the run's table and result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def source_hash():
    """Hash of the library and benchmark sources: per-seed reference outputs
    are only compared between runs of the same code."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["ingest", "explain", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    binary = build()
    if subprocess.run([binary, "--self-test"], stdout=sys.stderr).returncode != 0:
        fail("self-test failed")

    work_dir = os.path.join(BUILD_ROOT, "work", str(os.getpid()))
    state_dir = os.path.join(BUILD_ROOT, "state", source_hash())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--state-dir", state_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("run printed nothing (exit code %d)" % proc.returncode)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("run ended without a result (exit code %d)" % proc.returncode)
    print("\n".join(lines[:-1]))
    print("host: " + json.dumps(raw["host"]))

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            fail("metric %s was not measured (too few samples?)" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s measured in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(raw["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
