#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

    python3 perfbench/test_smoke.py

Runs every workload at smoke scale (tiny inputs, one-second runs):
twice untraced and once traced. Each run must pass every check and
print every metric BENCHMARK.json names, with its unit; the three runs
of a workload must print the same sim_digest.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seed: int = 7):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)
    lines = proc.stdout.splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("sim_digest"))
    return proc.returncode, json.loads(lines[-1]), digest


class SmokeTest(unittest.TestCase):
    def check_workload(self, workload: str):
        digests = []
        for trace, section in ((0, "end_to_end"), (0, "end_to_end"),
                               (1, "per_layer")):
            code, result, digest = run(workload, trace)
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, expected)
            digests.append(digest)
        self.assertEqual(len(set(digests)), 1, digests)

    def test_sql_grid(self):
        self.check_workload("sql_grid")

    def test_serve16_mix(self):
        self.check_workload("serve16_mix")

    def test_trace_stream(self):
        self.check_workload("trace_stream")

    def test_seed_changes_generated_inputs(self):
        self.assertNotEqual(run("trace_stream", 0, seed=1)[2],
                            run("trace_stream", 0, seed=2)[2])


if __name__ == "__main__":
    unittest.main()
