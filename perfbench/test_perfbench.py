#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny sizes (one-second runs).

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds the drivers through run.py like a benchmark run does, then checks
for every workload that each named metric prints with its unit, that the
default-seed digest matches digests.json, that another seed changes the
digest, that the traced and untraced drivers agree on the digest, and
that two traced runs of one seed report identical exact counts.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the benchmark's own entry point)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = json.loads((BENCH_DIR / "digests.json").read_text())
SECONDS = "1"

# Per-layer metrics that are exact counts or modelled ratios: two traced
# runs of one seed must report them bit for bit.
EXACT = [m["name"] for m in SPEC["per_layer"]
         if m["name"].startswith(("sim.events_", "alloc.", "pipeline.",
                                  "buffer.", "surface."))]


def bench(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    info = next(json.loads(line[len("# perfbench "):]) for line in lines
                if line.startswith("# perfbench "))
    return done.returncode, info, json.loads(lines[-1]), done.stdout


class BenchmarkTest(unittest.TestCase):
    def test_spec_matches_driver(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         run.PER_LAYER)

    def check_workload(self, workload):
        code, info, result, text = bench(workload, run.DEFAULT_SEED, 0)
        self.assertEqual(code, 0, text)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(info["digest"], DIGESTS[workload])
        for m in SPEC["end_to_end"]:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertGreater(got["value"], 0, m["name"])
            self.assertRegex(text, rf"# {m['name']} +\S+ {m['unit']}\n")

        traced = []
        for _ in range(2):
            code, tinfo, tresult, text = bench(workload, run.DEFAULT_SEED, 1)
            self.assertEqual(code, 0, text)
            self.assertTrue(tresult["correct"])
            self.assertEqual(tinfo["digests"], [DIGESTS[workload]] * 2)
            for m in SPEC["per_layer"]:
                self.assertEqual(tresult["metrics"][m["name"]]["unit"],
                                 m["unit"], m["name"])
            traced.append(tresult["metrics"])
        for name in EXACT:
            self.assertEqual(traced[0][name], traced[1][name], name)

        code, other, result, text = bench(workload, run.DEFAULT_SEED + 1, 0)
        self.assertEqual(code, 0, text)
        self.assertTrue(result["correct"])
        self.assertIsNone(other["digest_expected"])
        self.assertNotEqual(other["digest"], DIGESTS[workload])

    def test_fleet(self):
        self.check_workload("fleet")

    def test_sweep(self):
        self.check_workload("sweep")

    def test_multisurface(self):
        self.check_workload("multisurface")


if __name__ == "__main__":
    unittest.main()
