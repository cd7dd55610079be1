"""Smoke test of the benchmark harness on the same command shapes at tiny sizes.

    python3 perfbench/smoke_test.py

Runs shelling --n 4, betti --n 4 and genfun --check-alignment --n-max 4
through the harness, untraced and traced, and checks that every named metric
is emitted, that the reports match their stored references, and that a wrong
reference is counted as a failure.  Standard library only; takes a few
seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

ROOT = run.HERE.parent
TINY = run.workloads(shell_n=4, betti_n=4, n_max=4)


def reference() -> dict[str, str]:
    with open(run.REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


class HarnessSmokeTest(unittest.TestCase):
    def test_end_to_end_metrics_and_references(self):
        for seed in (3, 8):
            for w in TINY.values():
                with self.subTest(workload=w.name, seed=seed):
                    result, detail = run.run(w, seed, 0.5, False, ROOT, reference())
                    self.assertTrue(result["correct"], detail["failures"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(detail["failed_ratio"], 0)
                    self.assertEqual(list(result["metrics"]), list(run.END_TO_END_UNITS))
                    for m in result["metrics"].values():
                        self.assertGreater(m["value"], 0)

    def test_traced_run_emits_every_layer_metric(self):
        for w in TINY.values():
            with self.subTest(workload=w.name):
                result, detail = run.run(w, 5, 0.5, True, ROOT, reference())
                self.assertTrue(result["correct"], detail)
                self.assertIsNone(detail["traced"]["failure"])
                self.assertEqual(list(result["metrics"]), list(run.PER_LAYER_UNITS))
                self.assertEqual(detail["traced"]["zero_prediction_misses"], [])
                self.assertGreater(result["metrics"]["cli.main.self_s"]["value"], 0)

    def test_wrong_reference_counts_as_failure(self):
        wrong = {key: "0" * 64 for key in reference()}
        for w in TINY.values():
            with self.subTest(workload=w.name):
                result, detail = run.run(w, 3, 0.5, False, ROOT, wrong)
                self.assertFalse(result["correct"])
                self.assertGreater(detail["failed_ratio"], 0)
                self.assertEqual(result["failed"], result["attempted"])

    def test_refuses_to_run_without_sources(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as empty:
            got = subprocess.run(
                [sys.executable, str(Path(run.__file__)),
                 "--workload", next(iter(run.WORKLOADS)), "--seed", "0", "--seconds", "1"],
                cwd=empty, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(got.returncode, 0)
        self.assertEqual(got.stdout, "")
        self.assertIn("src/gammashell is missing", got.stderr)


if __name__ == "__main__":
    unittest.main()
