#!/usr/bin/env python3
"""Self-tests of the cell benchmark's arithmetic and metric lists.

    python3 cellbench/test_cellstats.py
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cellstats  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_with_ten_beyond(self):
        samples = list(range(1, 101))  # 1..100, shuffled order irrelevant
        value, beyond = cellstats.percentile(list(reversed(samples)), 0.9)
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)

    def test_refuses_tail_with_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            cellstats.percentile(list(range(99)), 0.9)

    def test_median_rank(self):
        value, beyond = cellstats.percentile([5, 1, 3, 2, 4] * 5, 0.5)
        self.assertEqual(value, 3)
        self.assertGreaterEqual(beyond, 10)

    def test_minimum_is_configurable(self):
        value, beyond = cellstats.percentile([1, 2, 3, 4], 0.5, min_beyond=2)
        self.assertEqual((value, beyond), (2, 2))

    def test_rejects_empty_and_bad_quantile(self):
        with self.assertRaises(ValueError):
            cellstats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            cellstats.percentile([1.0] * 100, 1.0)


class HostAdjustedTest(unittest.TestCase):
    @staticmethod
    def cell(slowdown):
        """A cell whose every time is `slowdown` times its quiet-host time."""
        return {"reference_ns": [r * slowdown for r in (90, 100, 130)],
                "slices_ns": [2e6 * slowdown, 6e6 * slowdown],
                "setup_ns": [50e3 * slowdown],
                "outcome": {"delivered_bytes": 8e6}}

    def test_a_slowed_host_gives_the_quiet_figures(self):
        quiet = cellstats.host_adjusted([self.cell(1.0)], 100)
        busy = cellstats.host_adjusted([self.cell(1.8)], 100)
        for a, b in zip(quiet[:3], busy[:3]):
            for x, y in zip(a, b):
                self.assertAlmostEqual(x, y)
        self.assertEqual(busy[3], [1.8])

    def test_figures_are_per_cell_and_per_sample(self):
        rates, slices_ms, setups_s, _ = cellstats.host_adjusted(
            [self.cell(1.0), self.cell(2.0)], 100)
        self.assertEqual(len(rates), 2)
        self.assertAlmostEqual(rates[0], 8.0 / 0.008)
        self.assertEqual(len(slices_ms), 4)
        self.assertAlmostEqual(slices_ms[1], 6.0)
        self.assertAlmostEqual(setups_s[1], 50e-6)

    def test_slowdown_is_the_median_reference(self):
        cell = self.cell(1.0)
        cell["reference_ns"] = [100, 400, 200]
        _, slices_ms, _, slowdowns = cellstats.host_adjusted([cell], 100)
        self.assertEqual(slowdowns, [2.0])
        self.assertAlmostEqual(slices_ms[0], 1.0)


def span(count, self_ms):
    return {"count": count, "self_ms": self_ms}


class LayerTableTest(unittest.TestCase):
    SPANS = {
        "core.sender.next_segment": span(100, 30.0),
        "core.receiver.on_segment": span(90, 20.0),
        "codec.decode": span(5, 6.0),
        "gf256.decode": span(2, 4.0),
        "bufferpool.alloc": span(3, 0.5),
        "sim.run_until": span(100, 0.25),
        "sched.run_until": span(100, 12.0),
        "harness.cell_setup": span(1, 0.1),
        "harness.cell_teardown": span(1, 0.2),
        "sched.compact": span(1, 0.05),
    }

    def test_rows_plus_unattributed_sum_to_wall(self):
        rows, unattributed = cellstats.layer_table(self.SPANS, 75.0, 4.0)
        total = sum(r["self_ms"] for r in rows.values()) + unattributed
        self.assertAlmostEqual(total, 75.0)
        self.assertAlmostEqual(unattributed, 75.0 - 73.1)

    def test_every_span_is_counted_once(self):
        rows, _ = cellstats.layer_table(self.SPANS, 75.0, 4.0)
        attributed = sum(r["self_ms"] for r in rows.values())
        self.assertAlmostEqual(
            attributed, sum(s["self_ms"] for s in self.SPANS.values()))

    def test_event_loop_splits_into_replay_and_net_tcp(self):
        rows, _ = cellstats.layer_table(self.SPANS, 75.0, 4.0)
        self.assertAlmostEqual(rows["sim.replay"]["self_ms"], 4.0)
        self.assertAlmostEqual(rows["net_tcp"]["self_ms"], 12.25 - 4.0)

    def test_both_decode_spans_feed_fountain_decode(self):
        rows, _ = cellstats.layer_table(self.SPANS, 75.0, 4.0)
        self.assertAlmostEqual(rows["fountain.decode"]["self_ms"], 10.0)
        self.assertEqual(rows["fountain.decode"]["calls"], 7)

    def test_unknown_spans_get_their_own_row(self):
        rows, _ = cellstats.layer_table(self.SPANS, 75.0, 4.0)
        self.assertAlmostEqual(rows["sched.compact"]["self_ms"], 0.05)

    def test_absent_layers_are_zero_rows(self):
        rows, unattributed = cellstats.layer_table({}, 10.0, 0.0)
        self.assertEqual(rows["mptcp.receiver.fill_ack"],
                         {"self_ms": 0.0, "calls": 0})
        self.assertAlmostEqual(unattributed, 10.0)



class OutcomeTest(unittest.TestCase):
    def test_failure_text_is_not_part_of_the_outcome(self):
        outcome = {"delivered_bytes": 1, "blocks_completed": 2,
                   "symbols_sent": 3, "redundant_symbols": 4,
                   "segments_sent": [5, 6], "retransmissions": [0, 1],
                   "failure": ""}
        failed = dict(outcome, failure="payload verification failed")
        self.assertEqual(cellstats.deterministic(outcome),
                         cellstats.deterministic(failed))
        self.assertEqual(cellstats.deterministic(outcome),
                         [1, 2, 3, 4, [5, 6], [0, 1]])

    def test_golden_mismatch_fails_the_cell(self):
        outcome = {"delivered_bytes": 1, "blocks_completed": 2,
                   "symbols_sent": 3, "redundant_symbols": 4,
                   "segments_sent": [5], "retransmissions": [0],
                   "failure": ""}
        golden = {"mptcp": {"7": [1, 2, 3, 4, [5], [1]]}}
        self.assertTrue(run.outcome_failures("mptcp", 7, outcome, golden))
        self.assertFalse(run.outcome_failures("mptcp", 8, outcome, golden))


class BenchmarkJsonTest(unittest.TestCase):
    """The metric lists run.py prints match BENCHMARK.json."""

    def setUp(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json not present")
        with open(path) as f:
            self.spec = json.load(f)

    def test_end_to_end(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["end_to_end"]], run.END_TO_END)

    def test_per_layer(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["per_layer"]], run.PER_LAYER)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
