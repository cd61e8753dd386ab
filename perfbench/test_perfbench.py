#!/usr/bin/env python3
"""Smoke tests of the repository benchmark, on tiny sizes of every workload.

    python3 perfbench/test_perfbench.py

Checks that each mode prints every metric BENCHMARK.json names, with its
unit; that simulated results repeat exactly for a seed, traced or not; and
that the correctness gate rejects a sabotaged result.
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

WORKLOADS = ["stream_bursty", "kv_fanout", "kv_hot"]
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)
BINARY = run.build(run.build_dir())


def bench(workload, *extra, seed=7, trace=0):
    """Runs the driver on the tiny size; returns (exit code, result, stdout)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result, proc.stdout


def fingerprint(stdout):
    return [l for l in stdout.splitlines() if l.startswith("sim_fingerprint")]


class MetricsPrinted(unittest.TestCase):
    def check_mode(self, workload, trace, defs, nonzero):
        code, result, _ = bench(workload, trace=trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {d["name"] for d in defs})
        for d in defs:
            m = metrics[d["name"]]
            self.assertEqual(m["unit"], d["unit"], d["name"])
            self.assertTrue(math.isfinite(m["value"]), d["name"])
            if nonzero:
                self.assertGreater(m["value"], 0, d["name"])

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_mode(w, 0, SPEC["end_to_end"], nonzero=True)

    def test_per_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_mode(w, 1, SPEC["per_layer"], nonzero=False)


class Determinism(unittest.TestCase):
    def test_same_seed_same_sim_results(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = [bench(w, trace=t)[2] for t in (0, 0, 1)]
                prints = [fingerprint(out) for out in runs]
                self.assertEqual(len(prints[0]), 1)
                self.assertEqual(prints[0], prints[1])
                self.assertEqual(prints[0], prints[2])

    def test_seed_changes_sim_results(self):
        a = fingerprint(bench("kv_hot", seed=1)[2])
        b = fingerprint(bench("kv_hot", seed=2)[2])
        self.assertNotEqual(a, b)


class CorrectnessGate(unittest.TestCase):
    def test_sabotaged_result_is_rejected(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    code, result, _ = bench(w, "--sabotage", "lose-one",
                                            trace=trace)
                    self.assertNotEqual(code, 0)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
