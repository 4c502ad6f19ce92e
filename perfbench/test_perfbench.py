"""Self-tests of the benchmark's metric maths and tracing helper.

Run from the root of a checkout: ``python3 -m unittest discover -s perfbench``.
They need neither the program nor numpy.
"""

from __future__ import annotations

import math
import types
import unittest

import benchstats
from calibration import REFERENCE_S, Calibration
from tracer import Tracer, covered, self_times


def step(rate, p99, achieved=None, failed=0, growth=0.0, valid=True):
    return {
        "rate": rate,
        "p99_ms": p99,
        "achieved_qps": rate if achieved is None else achieved,
        "failed": failed,
        "backlog_growth_ms": growth,
        "valid": valid,
    }


class PercentileTests(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchstats.percentile(values, 50), 50)
        self.assertEqual(benchstats.percentile(values, 99), 99)
        self.assertEqual(benchstats.percentile(values, 100), 100)
        self.assertEqual(benchstats.percentile([7.0], 99), 7.0)

    def test_failures_count_as_misses(self):
        values = [1.0] * 98 + [math.inf, math.inf]
        self.assertEqual(benchstats.percentile(values, 98), 1.0)
        self.assertEqual(benchstats.percentile(values, 99), math.inf)

    def test_summary_reports_sample_counts(self):
        summary = benchstats.latency_summary([float(i) for i in range(1000)])
        self.assertEqual(summary["n"], 1000)
        self.assertEqual(summary["p99_beyond"], 10)
        self.assertEqual(benchstats.samples_beyond(10_000, 99.9), 10)
        self.assertEqual(benchstats.samples_beyond(999, 99.0), 9)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.percentile([], 50)


class SelfTimeTests(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            (1, "root", 0.0, 10.0, None, None),
            (2, "a", 1.0, 4.0, 1, None),
            (3, "a.inner", 2.0, 3.0, 2, None),
            (4, "b", 5.0, 9.0, 1, None),
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 3.0 - 4.0)
        self.assertAlmostEqual(selfs[2], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[3], 1.0)
        self.assertAlmostEqual(selfs[4], 4.0)
        # Self times of a tree add up to the root's duration.
        self.assertAlmostEqual(sum(selfs.values()), 10.0)

    def test_overlapping_children_count_once(self):
        spans = [
            (1, "root", 0.0, 10.0, None, None),
            (2, "x", 1.0, 6.0, 1, None),
            (3, "y", 4.0, 8.0, 1, None),
        ]
        self.assertAlmostEqual(self_times(spans)[1], 10.0 - 7.0)

    def test_children_clipped_to_parent(self):
        spans = [(1, "root", 0.0, 2.0, None, None), (2, "late", 1.0, 5.0, 1, None)]
        self.assertAlmostEqual(self_times(spans)[1], 1.0)

    def test_covered_union(self):
        self.assertAlmostEqual(covered([(0, 1), (0.5, 2), (3, 4)]), 3.0)
        self.assertEqual(covered([]), 0.0)


class TracerTests(unittest.TestCase):
    def test_wrap_records_parentage_and_restores(self):
        module = types.SimpleNamespace(inner=lambda x: x + 1)
        module.outer = lambda x: module.inner(x) * 2
        original_inner, original_outer = module.inner, module.outer
        tracer = Tracer()
        tracer.wrap(module, "inner", "inner")
        tracer.wrap(module, "outer", "outer")
        self.assertEqual(module.outer(1), 4)
        tracer.restore()
        self.assertIs(module.inner, original_inner)
        self.assertIs(module.outer, original_outer)
        by_name = {s[1]: s for s in tracer.spans}
        self.assertEqual(by_name["inner"][4], by_name["outer"][0])
        self.assertIsNone(by_name["outer"][4])

    def test_inherited_method_is_shadowed_then_removed(self):
        class Base:
            def run(self):
                return "base"

            @staticmethod
            def helper():
                return "static"

        class Child(Base):
            pass

        tracer = Tracer()
        tracer.wrap(Child, "run", "run")
        tracer.wrap(Child, "helper", "helper")
        self.assertEqual(Child().run(), "base")
        self.assertEqual(Child.helper(), "static")
        self.assertIn("run", Child.__dict__)
        tracer.restore()
        self.assertNotIn("run", Child.__dict__)
        self.assertNotIn("helper", Child.__dict__)
        self.assertEqual([s[1] for s in tracer.spans], ["run", "helper"])

    def test_generator_spans_cover_only_blocked_time(self):
        owner = types.SimpleNamespace(items=lambda: iter([1, 2, 3]))
        tracer = Tracer()
        tracer.wrap_generator(owner, "items", "wait")
        self.assertEqual(list(owner.items()), [1, 2, 3])
        tracer.restore()
        self.assertEqual(len(tracer.spans), 4)  # three items plus the final stop

    def test_request_ids_tag_spans(self):
        tracer = Tracer()
        tracer.set_request("17")
        with tracer.span("handle"):
            self.assertTrue(tracer.inside("handle"))
        tracer.set_request(None)
        self.assertFalse(tracer.inside("handle"))
        self.assertEqual(tracer.spans[0][5], "17")


class QpsAtSloTests(unittest.TestCase):
    def test_all_pass_reports_top_step(self):
        steps = [step(200, 5), step(400, 6), step(800, 9), step(1600, 15, achieved=1590)]
        self.assertEqual(benchstats.qps_at_slo(steps), 1590)

    def test_interpolates_the_crossing(self):
        steps = [step(200, 5), step(400, 10), step(800, 40)]
        # log-log crossing of 20 ms between (400, 10) and (800, 40): 400 * 2**0.5.
        self.assertAlmostEqual(benchstats.qps_at_slo(steps), 400 * 2**0.5)

    def test_stops_at_first_failure(self):
        steps = [step(200, 5), step(400, 25, growth=0.0), step(800, 10)]
        self.assertLess(benchstats.qps_at_slo(steps), 400)
        self.assertGreater(benchstats.qps_at_slo(steps), 200)

    def test_failed_requests_block_interpolation(self):
        steps = [step(200, 5), step(400, 10, failed=1)]
        self.assertEqual(benchstats.qps_at_slo(steps), 200)

    def test_invalid_generator_step_does_not_pass(self):
        steps = [step(200, 5), step(400, 10, valid=False)]
        self.assertEqual(benchstats.qps_at_slo(steps), 200)

    def test_backlog_growth_fails_a_step(self):
        steps = [step(200, 5), step(400, 12, growth=50.0)]
        self.assertEqual(benchstats.qps_at_slo(steps), 200)

    def test_nothing_passes(self):
        self.assertEqual(benchstats.qps_at_slo([step(200, 30), step(400, 50)]), 0.0)

    def test_unsorted_input(self):
        steps = [step(800, 40), step(200, 5), step(400, 10)]
        self.assertAlmostEqual(benchstats.qps_at_slo(steps), 400 * 2**0.5)


class LatenessTests(unittest.TestCase):
    def test_generator_lateness_versus_backlog(self):
        # (due, ready, sent): the first fifth on time, the last fifth held up
        # by busy connections (ready later than due) but sent promptly.
        records = [(i * 1.0, i * 1.0, i * 1.0 + 0.001) for i in range(80)]
        records += [(i * 1.0, i * 1.0 + 0.05, i * 1.0 + 0.0505) for i in range(80, 100)]
        late = benchstats.lateness(records)
        self.assertAlmostEqual(late["generator_p99_ms"], 1.0, places=6)
        self.assertAlmostEqual(late["backlog_growth_ms"], 50.5 - 1.0, places=6)

    def test_rate_summary_pools_instances(self):
        def records(n, latency, late=0.0):
            return [[i, i, i + late, i + latency, 200, b"{}"] for i in range(n)]

        summary = benchstats.rate_summary(400, [records(60, 0.002), records(40, 0.004)])
        self.assertEqual(summary["n"], 100)
        self.assertAlmostEqual(summary["p50_ms"], 2.0)
        self.assertAlmostEqual(summary["p99_ms"], 4.0)
        self.assertTrue(summary["valid"])
        self.assertEqual(summary["failed"], 0)

    def test_late_generator_invalidates_step(self):
        slow = [[i, i, i + 0.05, i + 0.06, 200, b"{}"] for i in range(50)]
        self.assertFalse(benchstats.rate_summary(400, [slow])["valid"])

    def test_failed_request_is_infinite_latency(self):
        recs = [[i, i, i, i + 0.001, 200, b"{}"] for i in range(99)]
        recs.append([99, 99, 99, None, 0, None])
        summary = benchstats.rate_summary(400, [recs])
        self.assertEqual(summary["failed"], 1)
        self.assertAlmostEqual(summary["p99_ms"], 1.0)
        self.assertEqual(summary["p99_beyond"], 1)


class CalibrationTests(unittest.TestCase):
    def test_scaling_uses_the_median_sample(self):
        cal = Calibration([REFERENCE_S * 2, REFERENCE_S * 1.5, REFERENCE_S * 9])
        self.assertAlmostEqual(cal.slowdown, 2.0)
        self.assertAlmostEqual(cal.seconds(0.6), 0.3)
        self.assertAlmostEqual(cal.rate(100.0), 200.0)

    def test_reference_speed_leaves_figures_unchanged(self):
        cal = Calibration([REFERENCE_S])
        self.assertAlmostEqual(cal.seconds(1.25), 1.25)
        self.assertAlmostEqual(cal.rate(1.25), 1.25)


if __name__ == "__main__":
    unittest.main()
