"""Tests of the benchmark harness: the percentile rule and the best-window
statistics, a tiny-scale run of every workload traced and untraced, and
the refusal to run without the program's sources.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class PercentileRule(unittest.TestCase):
    def test_too_few_samples_support_no_percentile(self):
        self.assertIsNone(run.tail_percentile(list(range(10))))
        # The median of 19 has only 9 samples beyond it.
        self.assertIsNone(run.tail_percentile(list(range(19))))

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(list(range(20))), (50.0, 9, 20))
        self.assertEqual(run.tail_percentile(list(range(100))), (90.0, 89, 100))
        self.assertEqual(run.tail_percentile(list(range(999))),
                         (95.0, 949, 999))
        self.assertEqual(run.tail_percentile(list(range(1000))),
                         (99.0, 989, 1000))
        self.assertEqual(run.tail_percentile(list(range(10000))),
                         (99.9, 9989, 10000))

    def test_order_of_samples_does_not_matter(self):
        samples = list(range(1000))
        random.Random(3).shuffle(samples)
        self.assertEqual(run.tail_percentile(samples), (99.0, 989, 1000))

    def test_quiet_window_percentile(self):
        quiet = [1.0] * run.WINDOW_QUERIES
        slower = [2.0] * run.WINDOW_QUERIES
        stalled = [1.0] * (run.WINDOW_QUERIES - 30) + [50.0] * 30
        # The lower quartile of 4 windows is the second lowest.
        self.assertEqual(run.quiet_window_percentile(
            stalled + quiet + slower + stalled, 99.0), 2.0)
        # A trailing part window does not count.
        self.assertEqual(run.quiet_window_percentile(
            quiet + stalled[:-1], 99.0), 1.0)
        with self.assertRaises(run.BenchError):
            run.quiet_window_percentile(quiet[:-1], 99.0)

    def test_best_window_rate(self):
        # 10 completions in the first window, 20 in the second; the third
        # window is not full and does not count.
        done = [0.01 * i for i in range(10)] + \
               [run.WINDOW_S + 0.001 * i for i in range(20)] + \
               [2 * run.WINDOW_S + 0.01]
        self.assertEqual(run.best_window_rate(done), 20 / run.WINDOW_S)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=1800)


class TinyWorkloads(unittest.TestCase):
    """Every workload at 12 planted families emits every metric of
    BENCHMARK.json with its unit and passes its output checks."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, workload, trace):
        out = run_bench(ROOT, "--workload", workload, "--seed", "7",
                        "--seconds", "2", "--trace", str(trace),
                        "--families", "12")
        self.assertEqual(out.returncode, 0, out.stderr[-4000:])
        line = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"])
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        group = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(line["metrics"]), {m["name"] for m in group})
        for m in group:
            metric = line["metrics"][m["name"]]
            self.assertEqual(metric["unit"], m["unit"], m["name"])
            self.assertIsInstance(metric["value"], (int, float), m["name"])

    def test_build(self):
        self.check("build", 0)
        self.check("build", 1)

    def test_serve(self):
        self.check("serve", 0)
        self.check("serve", 1)

    def test_append(self):
        self.check("append", 0)
        self.check("append", 1)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run_bench(tmp, "--workload", "build", "--seed", "1",
                            "--seconds", "1", "--trace", "0")
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
