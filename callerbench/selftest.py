"""Self-tests of the caller-view benchmark (about a minute).

Run from the repository root::

    python3 callerbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

#: A tiny configuration per workload: small pools, few windows.
TINY = {
    "jit_stream": {"batches": 20, "windows": 4},
    "fresh_blocks": {"batches": 20, "windows": 4},
    "dynamic_constraints": {"batches": 20, "windows": 4},
    "service_clients": {"pool_size": 8, "setup_reps": 2, "windows": 2},
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _corrupt(expected: list) -> None:
    """Make every expected output wrong (engine digests or service values)."""
    if isinstance(expected, dict):
        for values in expected.values():
            values[:] = [["wrong"]] * len(values)
    else:
        expected[:] = ["0" * 32] * len(expected)


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self) -> None:
        spec = _spec()
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            units = {m["name"]: m["unit"] for m in spec[section]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = run.run_workload(workload, 3, 0.8, trace, **TINY[workload])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), set(units))
                    for name, metric in metrics.items():
                        self.assertEqual(metric["unit"], units[name], name)
                        self.assertTrue(math.isfinite(metric["value"]), name)
                        if not trace:
                            self.assertGreater(metric["value"], 0, name)

    def test_wrong_oracle_drives_error_frac_above_zero(self) -> None:
        for workload in ("jit_stream", "dynamic_constraints", "service_clients"):
            with self.subTest(workload=workload):
                result = run.run_workload(
                    workload, 3, 0.5, True, tamper=_corrupt, **TINY[workload]
                )
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(result["metrics"]["error_frac"]["value"], 0)
        # The service's untraced run is a different loop; it checks every response too.
        result = run.run_workload(
            "service_clients", 3, 0.5, False, tamper=_corrupt, **TINY["service_clients"]
        )
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_benchmark_json_matches_the_runner(self) -> None:
        spec = _spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for workload in spec["workloads"]:
            why = workload["why"]
            self.assertTrue(why.endswith("."), workload["name"])
            self.assertNotIn("\n", why)
            self.assertEqual(why.count(". "), 0, f"{workload['name']}: one sentence")
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_refuses_to_run_without_the_sources(self) -> None:
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "callerbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            done = subprocess.run(
                [sys.executable, "callerbench/run.py", "--workload", "jit_stream",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
