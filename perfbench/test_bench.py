#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs (--smoke); runs in seconds once
the benchmark binary is built.

    python3 perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Per-layer counts that must repeat exactly for a fixed seed.
DETERMINISTIC = ("sim.events", "charm.sends", "net.fabric_msgs",
                 "net.fabric_bytes", "ckdirect.puts", "fault.retransmits")


def bench(workload, seed=1, trace=0, *extra, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--smoke", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if not check:
        return proc
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: "
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def test_outputs_are_correct_and_complete(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, 1, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCH[kind]}
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        want)

    def test_wrong_expected_value_is_counted_as_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, 1, 0, "--wrong-expected")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ops_ok_frac"]["value"], 1.0)

    def test_deterministic_counts_repeat_for_a_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = bench(workload, 3, 1)["metrics"]
                second = bench(workload, 3, 1)["metrics"]
                for name in DETERMINISTIC:
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"], name)

    def test_sharded_storm_matches_serial_storm(self):
        serial = bench("storm", 5, 1)["metrics"]
        sharded = bench("storm_sharded", 5, 1)["metrics"]
        for name in ("sim.events", "charm.sends", "net.fabric_msgs",
                     "net.fabric_bytes"):
            self.assertEqual(serial[name]["value"], sharded[name]["value"])
        self.assertGreater(sharded["sim.par.windows"]["value"], 0)

    def test_oneside_faults_are_absorbed(self):
        metrics = bench("oneside", 2, 1)["metrics"]
        self.assertGreater(metrics["fault.injected"]["value"], 0)
        self.assertEqual(metrics["fault.error_completions"]["value"], 0)

    def test_inputs_follow_the_seed(self):
        for workload in ("storm", "oneside"):
            make = run.INPUTS[workload]
            self.assertEqual(make(7, False), make(7, False))
            self.assertNotEqual(make(7, False), make(8, False))
        self.assertEqual(run.stencil_input(7, False),
                         run.stencil_input(8, False))

    def test_fails_without_the_simulator_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("storm", 1, 0, cwd=bare, check=False)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
