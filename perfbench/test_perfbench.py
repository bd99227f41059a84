#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build the benchmark on first use (through run.py) and drive it at
the tiny size, so the whole file takes well under a minute once built.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Served rates and latencies: the context line of an untraced run, and
# the per-layer metrics of a traced one under an "e2e." prefix.
TIMINGS = {name[len("e2e."):]: unit for name, unit in PER_LAYER.items()
           if name.startswith("e2e.")}
COSTS = ("msgs_per_count", "bytes_per_count", "msgs_per_item",
         "bytes_per_item")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def tiny(workload, seed, trace=0):
    out = run("--workload", workload, "--seed", str(seed), "--seconds",
              "0.5", "--trace", str(trace), "--size", "tiny")
    if out.returncode != 0:
        raise AssertionError(out.stderr)
    return [json.loads(line) for line in out.stdout.strip().splitlines()]


class PerfbenchTest(unittest.TestCase):

    def test_checker_rejects_planted_faults_and_tiny_runs_pass(self):
        out = run("--self-test")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertIn("checker rejects planted faults: ok", out.stdout)
        self.assertIn("tiny count-hot-sim/pcsa: ok", out.stdout)

    def test_every_workload_passes_its_checks_at_two_seeds(self):
        for workload in WORKLOADS:
            for seed in (1, 2):
                with self.subTest(workload=workload, seed=seed):
                    lines = tiny(workload, seed)
                    stamp, result = lines[0]["stamp"], lines[-1]
                    self.assertEqual(stamp["seed"], seed)
                    self.assertGreaterEqual(stamp["host_cores"], 1)
                    self.assertIn("commit", stamp)
                    self.assertIn("build_type", stamp)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        END_TO_END)
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)
                    context = lines[-2]
                    self.assertGreaterEqual(
                        context["context"]["replays"]["value"], 2)
                    self.assertEqual(
                        {k: v["unit"] for k, v in context["timings"].items()},
                        TIMINGS)
                    for name, metric in context["timings"].items():
                        self.assertGreater(metric["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny(workload, 3, trace=1)[-1]
                self.assertTrue(result["correct"])
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    PER_LAYER)

    def test_costs_repeat_and_sim_equals_loopback(self):
        first = tiny("count-hot-sim", 5)
        again = tiny("count-hot-sim", 5)
        loopback = tiny("count-hot-loopback", 5)
        for name in COSTS:
            value = first[-1]["metrics"][name]["value"]
            self.assertEqual(value, again[-1]["metrics"][name]["value"], name)
            self.assertEqual(value, loopback[-1]["metrics"][name]["value"],
                             name)
        self.assertEqual(first[-2]["answer_digest"],
                         loopback[-2]["answer_digest"])

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, os.path.join(tmp, "perfbench", "run.py"),
                 "--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                 "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
