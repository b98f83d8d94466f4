"""Tests of the benchmark harness itself (stdlib unittest, no wall-clock asserts).

    python3 -m unittest discover -s perfbench/tests

They run one block of each workload in process, which takes about half a
minute.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
REPO = BENCH.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import defects  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, install  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def recurrence(n: int, m: int, u: float) -> float:
    """Classical three-term recurrence for L_n^m(u), in floats."""
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + m - u) * cur - (k + m) * prev) / (k + 1)
    return cur


def make(name: str, seed: int):
    if name == "cli-mix":
        return workloads.CliMix(seed, run.child_env())
    return worker.make_workload(name, seed)


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                a, b, c = make(name, 7), make(name, 7), make(name, 8)
                for block in (0, 3):
                    self.assertEqual(a.block(block), b.block(block))
                self.assertNotEqual(a.block(0), c.block(0))

    def test_strata_cover_the_range(self):
        import random

        rows = workloads.design(random.Random(1), 0, 8, [(0, 60), (200, 2000)])
        for column, (lo, hi) in enumerate([(0, 60), (200, 2000)]):
            values = sorted(row[column] for row in rows)
            self.assertTrue(lo <= values[0] <= lo + (hi - lo) / 8)
            self.assertTrue(hi - (hi - lo) / 8 <= values[-1] <= hi)


class OracleTests(unittest.TestCase):
    def test_rejects_the_known_bad_horner_value(self):
        # claguerre eval --n 50 --x 50 --alpha 1 printed 4.73e15; the true value is 2.51e9
        self.assertFalse(oracle.point_ok(50, 0, 50.0, 1.0, 4.73e15, printed_digits=True))
        self.assertAlmostEqual(oracle.exact_value(50, 0, 50.0) / 2.51e9, 1.0, places=2)

    def test_accepts_a_recurrence_value(self):
        for n, m, x in ((50, 0, 50.0), (100, 0, 100.0), (60, 4, 37.5)):
            value = recurrence(n, m, x)
            self.assertTrue(oracle.point_ok(n, m, x, 1.0, value))
            printed = float(f"{value:.12g}")
            self.assertTrue(oracle.point_ok(n, m, x, 1.0, printed, printed_digits=True))

    def test_rejects_non_finite_values(self):
        self.assertFalse(oracle.point_ok(3, 0, 1.0, 1.0, math.nan))
        self.assertFalse(oracle.closed_value_ok(math.inf, 1.0))

    def test_laguerre_transform_value(self):
        self.assertEqual(oracle.laguerre_transform_value(3, 2.0), 1 / 16)
        self.assertEqual(oracle.laguerre_transform_value(4, 1.0), 0.0)


class FloatRangeTests(unittest.TestCase):
    def test_float_paths_stay_at_or_below_the_limit(self):
        for seed in (1, 2):
            for spec in make("table-sweep", seed).block(0):
                self.assertLessEqual(spec["n"], workloads.FLOAT_MAX_N)
            for spec in make("cli-mix", seed).block(0):
                if spec["cmd"] in ("eval", "table") or spec.get("kind") == "laguerre":
                    self.assertLessEqual(spec["n"], workloads.FLOAT_MAX_N)

    def test_defect_probe_counts_its_checks(self):
        found = defects.probe(5)
        self.assertEqual(found, defects.probe(5))
        self.assertEqual(found["horner_envelope"]["checked"], defects.HORNER_POINTS)
        self.assertEqual(found["laguerre_transform_value"]["checked"],
                         defects.TRANSFORM_POINTS)
        for body in found.values():
            self.assertTrue(0 <= body["failed"] <= body["checked"])


class ReferenceTests(unittest.TestCase):
    def test_scale_maps_the_kernel_median_to_nominal(self):
        samples = [2 * reference.NOMINAL_S, 4 * reference.NOMINAL_S, 3 * reference.NOMINAL_S]
        self.assertAlmostEqual(reference.scale(samples), 1 / 3)
        self.assertEqual(len(reference.sample(3)), 3)

    def test_scaled_times_follow_their_block_reference(self):
        done = worker.Pass()
        worker.run_block(make("exact-core", 3), 0, done)
        factor = reference.scale(done.refs)
        self.assertEqual(len(done.refs), reference.SAMPLES * len(done.times))
        for raw, scaled in zip(done.times, done.scaled):
            self.assertAlmostEqual(scaled, raw * factor)


class TracerTests(unittest.TestCase):
    def test_span_tree_closes(self):
        tracer = Tracer()

        def leaf():
            return sum(range(2000))

        leaf_w = tracer.timed("leaf", leaf)

        def middle(k):
            return [leaf_w() for _ in range(k)]

        middle_w = tracer.timed("middle", middle)

        def top():
            return middle_w(3), leaf_w(), middle_w(2)

        top_w = tracer.timed("top", top)
        t0 = time.perf_counter()
        for _ in range(5):
            tracer.root(top_w)
        wall = time.perf_counter() - t0
        stats = tracer.stats
        self.assertEqual(stats["leaf"][0], 5 * 6)
        self.assertEqual(stats["middle"][0], 10)
        self.assertEqual(tracer.root_calls, 5)
        selfs = [entry[2] for entry in stats.values()]
        self.assertTrue(all(s >= 0 for s in selfs))
        total_self = sum(selfs) + tracer.root_self_s
        self.assertLessEqual(total_self, wall)
        self.assertAlmostEqual(total_self, tracer.root_s, delta=1e-9)
        self.assertLessEqual(stats["top"][1], tracer.root_s)

    def test_calls_outside_a_root_span_are_not_recorded(self):
        tracer = Tracer()
        f = tracer.timed("f", lambda: 1)
        g = tracer.counted("g", lambda: 2)
        f(), g()
        self.assertEqual((tracer.stats["f"][0], tracer.stats["g"][0]), (0, 0))

    def test_install_reaches_aliases_and_restores(self):
        import claguerre.cli as cli
        import claguerre.laguerre as laguerre
        import claguerre.tables as tables

        original = laguerre.assoc_closed
        tracer = Tracer()
        restore = install(tracer)
        try:
            self.assertIs(tables.assoc_closed, laguerre.assoc_closed)
            self.assertIsNot(tables.assoc_closed, original)
            self.assertIs(cli.build_table, tables.build_table)
            tracer.root(lambda: cli.build_table(12, 1, (0.5, 1.0), 0.0, 4.0, 9).to_csv())
        finally:
            restore()
        self.assertIs(tables.assoc_closed, original)
        metrics = tracer.metrics()
        self.assertEqual(metrics["laguerre.assoc_closed.calls"], 1)
        self.assertEqual(metrics["tables.build_table.calls"], 1)
        self.assertEqual(metrics["alpha_calc.ReducedPoly.eval.calls"], 18)
        self.assertEqual(metrics["tables.rows"], 9)
        self.assertEqual(tracer.missing, [])


class MetricNameTests(unittest.TestCase):
    """Run one block of every workload in both modes and assemble the output."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads(run.SPEC.read_text())
        cls.results = {}
        for name in run.WORKLOADS:
            e2e = worker.end_to_end(make(name, 3), seconds=0, min_ops=1)
            e2e["metrics"]["setup_s"] = 0.1
            layered = worker.traced(make(name, 3), seconds=0)
            layered["metrics"].update({"cli.python_start_ms": 1.0, "cli.import_ms": 1.0})
            cls.results[name] = (e2e, layered)

    def test_declared_names_are_well_formed_and_unique(self):
        names = [m["name"] for section in ("end_to_end", "per_layer")
                 for m in self.spec[section]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
            self.assertLessEqual(len(name), 64)

    def test_every_printed_metric_is_declared_and_measured(self):
        for name, results in self.results.items():
            for section, result in zip(("end_to_end", "per_layer"), results):
                with self.subTest(workload=name, section=section):
                    context = {}
                    printed = run.assemble(section, result["metrics"], context)
                    declared = [m["name"] for m in self.spec[section]]
                    self.assertEqual(list(printed), declared)
                    self.assertNotIn("not_measured", context)
                    for body in printed.values():
                        self.assertTrue(math.isfinite(body["value"]))

    def test_end_to_end_metrics_are_positive(self):
        for name, (e2e, _) in self.results.items():
            with self.subTest(workload=name):
                self.assertGreaterEqual(e2e["attempted"], 1)
                self.assertEqual(e2e["failed"], 0)
                for metric in ("ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"):
                    self.assertGreater(e2e["metrics"][metric], 0)


if __name__ == "__main__":
    unittest.main()
