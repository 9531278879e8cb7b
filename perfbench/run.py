#!/usr/bin/env python3
"""Builds and runs the Sedna performance benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the repository's src/ plus the benchmark's own files)
into .bench_build/ as a Release build; later runs reuse it. The binary runs
the workload, checks its outputs and prints every metric it measured; this
script then prints, as the last line of stdout, one JSON object holding the
metrics BENCHMARK.json names: its end_to_end list for --trace 0 and its
per_layer list for --trace 1. Any failure (build, run, correctness check,
missing metric) exits nonzero without printing that line.

Run outputs (WAL/snapshot directories, span dumps) live under
.bench_build/runs/; WAL directories are removed at the end of each run.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUNS_DIR = os.path.join(BUILD_DIR, "runs")
BINARY = os.path.join(BUILD_DIR, "sedna_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; returns False on failure."""
    cmake = shutil.which("cmake")
    if cmake is None:
        print("cmake not found", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        [cmake, "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        [cmake, "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("benchmark build failed", file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def run_binary(workload, seed, seconds, trace, small=False):
    """Runs the binary; returns (report dict or None, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", RUNS_DIR]
    if small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return None, []
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        print(f"benchmark exited with {proc.returncode}", file=sys.stderr)
        return None, lines
    try:
        return json.loads(lines[-1]), lines[:-1]
    except json.JSONDecodeError:
        print("benchmark printed no result", file=sys.stderr)
        return None, lines


def contract_result(report, trace):
    """The BENCHMARK.json-shaped result, or None if a metric is missing."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"metric {m['name']} missing or in the wrong unit",
                  file=sys.stderr)
            return None
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper_fig8", "ycsb_a_large", "durable_churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        return 1
    os.makedirs(RUNS_DIR, exist_ok=True)
    report, lines = run_binary(args.workload, args.seed, args.seconds,
                               args.trace == 1)
    if report is None or not report.get("correct"):
        return 1
    result = contract_result(report, args.trace == 1)
    if result is None:
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
