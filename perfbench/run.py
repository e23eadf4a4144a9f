#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 15 --trace 0

Builds the drivers from source into .bench_build/perfbench (Release), runs
one workload and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 runs the untraced driver for --seconds and reports the
end-to-end metrics. --trace 1 runs the untraced driver for a fifth of
--seconds and the traced driver for the rest, and reports the traced
driver's per-layer metrics. Both drivers must give the same digest.

On the default seed the output digest must equal the one committed in
digests.json beside this script.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("fleet", "sweep", "multisurface")
DEFAULT_SEED = 1
DEADLINE_S = 170.0  # the whole run, build excluded, must end within this
BUILD_TIMEOUT_S = 880.0
BUILD_JOBS = "3"

# name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "sessions_per_s": "1/s",
    "cpu_us_per_session": "us",
    "session_us_p50": "us",
    "session_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fdps_reduction_pct": "%",
}
PER_LAYER = {
    "workload.materialize_us": "us",
    "workload.prepare_s": "s",
    "system.construct_us": "us",
    "system.run_us": "us",
    "system.report_us": "us",
    "system.teardown_us": "us",
    "harness.aggregate_us": "us",
    "obs.observe_us": "us",
    "sim.events_per_session": "count",
    "sim.events_per_sim_s": "1/s",
    "sim.ns_per_event": "ns",
    "alloc.construct_per_session": "count",
    "alloc.run_per_session": "count",
    "alloc.run_bytes_per_session": "B",
    "alloc.per_event": "count",
    "pipeline.presents_per_frame": "ratio",
    "buffer.stuffed_per_present": "ratio",
    "surface.budget_used_mb": "MB",
    "bench.trace_overhead_pct": "%",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    """Environment of every child: scratch files stay in the checkout."""
    env = dict(os.environ)
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["DVS_JOBS"] = "1"
    # git describe must not look above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS,
                  "--target", "perfbench", "perfbench_traced"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                                  capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            fail("build failed")


def drive(binary, args, timeout):
    try:
        done = subprocess.run([str(BUILD_DIR / binary)] + args, cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        fail(f"{binary} timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{binary} exited with {done.returncode}")
    try:
        return json.loads(done.stdout)
    except json.JSONDecodeError:
        fail(f"{binary} printed no result")


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    start = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - start)

    common = ["--workload=" + opts.workload, f"--seed={opts.seed}"]
    runs = []
    if opts.trace == 0:
        runs.append(drive("perfbench",
                          common + [f"--seconds={opts.seconds}"],
                          remaining()))
    else:
        # The untraced run only has to give its digest.
        runs.append(drive("perfbench",
                          common + [f"--seconds={opts.seconds / 5}"],
                          remaining()))
        trace_file = BUILD_DIR / f"trace-{opts.workload}-{opts.seed}.json"
        runs.append(drive("perfbench_traced",
                          common + [f"--seconds={opts.seconds * 4 / 5}",
                                    f"--trace-out={trace_file}"],
                          remaining()))

    digest = runs[0]["digest"]
    expected = None
    if opts.seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text())[opts.workload]
    correct = all(r["correct"] for r in runs)
    correct = correct and all(r["digest"] == digest for r in runs)
    correct = correct and (expected is None or digest == expected)

    if opts.trace == 0:
        metrics = {k: metric(runs[0][k], u) for k, u in END_TO_END.items()}
    else:
        metrics = {k: metric(runs[1][k], u) for k, u in PER_LAYER.items()}

    # Readable lines first; the result is the last line.
    stamp = ("schema_version", "bench", "git", "nproc", "compiler",
             "optimized", "sanitizers", "traced", "passes",
             "sessions_per_pass", "paper_err_pp")
    info = {
        "workload": opts.workload,
        "seed": opts.seed,
        "digest": digest,
        "digest_expected": expected,
        "digests": [r["digest"] for r in runs],
        "runs": [{k: r[k] for k in stamp if k in r} for r in runs],
    }
    print("# perfbench " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name:30s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
