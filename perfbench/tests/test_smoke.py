"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

The smoke test runs every workload briefly in both modes through
perfbench/run.py --smoke, which fails when a run is incorrect, reports a
metric BENCHMARK.json does not name, misses an end-to-end metric, or when a
per-layer metric BENCHMARK.json names is measured by no workload. The other
test checks that the benchmark refuses to run without the repository's
sources.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=1500)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        self.assertIn('"smoke": "ok"', proc.stdout)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "nest-wqth",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
