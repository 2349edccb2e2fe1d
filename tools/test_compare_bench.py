#!/usr/bin/env python3
"""Unit tests for tools/compare_bench.py, the perf-trajectory gate.

Checks the field classification (throughput ``*_per_s`` fields must not be
mistaken for host durations, which also end in ``_s``) and the direction of
the gate on synthetic snapshots: a 5x throughput gain passes, a 5x
throughput loss fails, and host durations are gated the other way round.

Run from the repo root: python3 tools/test_compare_bench.py
"""

import contextlib
import importlib.util
import io
import json
import os
import tempfile
import unittest
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench", Path(__file__).resolve().parent / "compare_bench.py")
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)


class ClassifyTest(unittest.TestCase):
    def test_throughput_is_not_a_duration(self):
        self.assertEqual(compare_bench.classify("rows.0.queries_per_s"),
                         "throughput")
        self.assertEqual(compare_bench.classify("sharded.2.queries_per_s"),
                         "throughput")

    def test_durations_and_modeled(self):
        self.assertEqual(compare_bench.classify("rows.0.wall_s"), "host")
        self.assertEqual(compare_bench.classify("rows.1.verify_modeled_s"),
                         "modeled")

    def test_counts_are_exact_and_noisy_fields_skipped(self):
        self.assertEqual(compare_bench.classify("rows.0.queries"), "exact")
        self.assertEqual(compare_bench.classify("rows.0.latency_p99_s"),
                         "skip")
        self.assertEqual(compare_bench.classify("rows.0.p99_speedup"), "skip")


class GateDirectionTest(unittest.TestCase):
    def gate(self, baseline, current):
        """Runs the gate on two documents; returns its exit status."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("base.json", baseline), ("cur.json", current)):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    json.dump(doc, f)
                paths.append(path)
            with contextlib.redirect_stdout(io.StringIO()):
                return compare_bench.main(["compare_bench.py"] + paths)

    @staticmethod
    def doc(queries_per_s, wall_s=1.0):
        return {"rows": [{"queries": 100, "queries_per_s": queries_per_s,
                          "wall_s": wall_s}]}

    def test_throughput_gain_passes(self):
        self.assertEqual(self.gate(self.doc(1000.0), self.doc(5000.0)), 0)

    def test_throughput_loss_fails(self):
        self.assertEqual(self.gate(self.doc(5000.0), self.doc(1000.0)), 1)

    def test_duration_gain_passes_and_loss_fails(self):
        self.assertEqual(self.gate(self.doc(1000.0, wall_s=5.0),
                                   self.doc(1000.0, wall_s=1.0)), 0)
        self.assertEqual(self.gate(self.doc(1000.0, wall_s=1.0),
                                   self.doc(1000.0, wall_s=5.0)), 1)

    def test_count_mismatch_fails(self):
        current = self.doc(1000.0)
        current["rows"][0]["queries"] = 99
        self.assertEqual(self.gate(self.doc(1000.0), current), 1)


if __name__ == "__main__":
    unittest.main()
