#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and tabulate every metric.

Run from the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --trace 0 1

For each workload and trace mode it runs run.py once per seed (seeds 1 to
--runs, one after another) and prints a Markdown table with the median,
the first and third quartiles (statistics.quantiles(values, n=4)) and the
quartile spread as a share of the median. This is how the baseline in
README.md was made, and how two versions of the program are compared.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(workload, trace, runs, seconds):
    values = {}
    for seed in range(1, runs + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            sys.exit(f"{workload} seed {seed} trace {trace}: not correct\n"
                     + done.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="+", default=[0],
                        choices=(0, 1))
    parser.add_argument("--workload", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    opts = parser.parse_args()
    if opts.runs < 2:
        parser.error("--runs must be at least 2")

    for trace in opts.trace:
        for workload in opts.workload:
            values = collect(workload, trace, opts.runs, opts.seconds)
            print(f"\n{workload}, --trace {trace}, {opts.runs} runs of "
                  f"{opts.seconds} s\n")
            print("| metric | unit | median | Q1 | Q3 | (Q3-Q1)/median |")
            print("|---|---|---:|---:|---:|---:|")
            for name, (v, unit) in values.items():
                q1, _, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                spread = (q3 - q1) / abs(med) if med else 0.0
                print(f"| {name} | {unit} | {med:.6g} | {q1:.6g} | "
                      f"{q3:.6g} | {spread:.3f} |")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
