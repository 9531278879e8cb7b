#!/usr/bin/env python3
"""Deterministic-count self-check of the Sedna benchmark.

    python3 perfbench/selfcheck.py [--seed N]

Builds the benchmark (as run.py does), then runs a reduced-size version of
every workload twice on one seed in traced mode and once untraced. Every
value the binary marks deterministic (sim-clock metrics and counts such as
sim.events_per_op, sim.allocs_per_op, net.*, zk.commits_per_op) must be
identical across the two traced runs, and every such value the untraced
run also reports must match too, since tracing must not perturb the
simulation. Exits nonzero on any difference or failed run.
"""
import argparse
import sys

import run


def deterministic(report):
    return {name: m["value"] for name, m in report["metrics"].items()
            if m["deterministic"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    if not run.build():
        return 1
    problems = []
    for workload in ("paper_fig8", "ycsb_a_large", "durable_churn"):
        reports = []
        for trace in (True, True, False):
            report, _ = run.run_binary(workload, args.seed, 1, trace,
                                       small=True)
            if report is None or not report["correct"]:
                problems.append(f"{workload}: run failed")
                break
            reports.append(report)
        if len(reports) != 3:
            continue
        first, second, untraced = (deterministic(r) for r in reports)
        if first != second:
            for name in sorted(set(first) | set(second)):
                if first.get(name) != second.get(name):
                    problems.append(f"{workload}: {name} differs between "
                                    f"runs: {first.get(name)} vs "
                                    f"{second.get(name)}")
        for name, value in untraced.items():
            if name in first and first[name] != value:
                problems.append(f"{workload}: {name} differs with tracing "
                                f"off: {value} vs {first[name]}")
        print(f"{workload}: {len(first)} deterministic values compared")
    for p in problems:
        print("MISMATCH:", p)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
