#!/usr/bin/env python3
"""Tests of perfbench's metric arithmetic: tail-percentile selection,
ratio bases, span self time and the output shape.

    python3 perfbench/test_metrics.py
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402


def make_pass(wall_s, cpu_s, user_bytes, lat_ns, ok=None, io=None, extra=None, heap_bytes=2000000):
    base_io = {k: 0 for k in metrics.PASS_IO_KEYS}
    base_io.update(io or {})
    return {"wall_ns": int(wall_s * 1e9), "cpu_ns": int(cpu_s * 1e9),
            "user_bytes": user_bytes, "ops": len(lat_ns),
            "ok_ops": len(lat_ns) if ok is None else ok, "heap_bytes": heap_bytes,
            "io": base_io, "extra": extra or {}, "lat_ns": lat_ns}


def make_raw(passes, traced=(), counters=None):
    return {"setup_ns": [3e9, 1e9, 2e9], 
            "amp": {"read_bytes": 300, "read_user_bytes": 1200,
                    "write_bytes": 50, "write_user_bytes": 1000,
                    "live_file_bytes": 10, "live_user_bytes": 40},
            "passes": list(passes), "traced_passes": list(traced),
            "counters": counters or {}}


class TailPercentile(unittest.TestCase):
    def test_highest_ladder_percentile_with_ten_beyond(self):
        self.assertIsNone(metrics.tail_percentile(19))   # median leaves 9
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertEqual(metrics.tail_percentile(99), 50.0)  # p90 leaves 9
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(999), 90.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)

    def test_nearest_rank_counts_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.nearest_rank(values, 50), (50, 50))
        self.assertEqual(metrics.nearest_rank(values, 90), (90, 10))
        self.assertEqual(metrics.nearest_rank(values, 99), (99, 1))
        self.assertEqual(metrics.nearest_rank([], 50), (0.0, 0))

    def test_tail_is_median_of_per_pass_tails(self):
        # 100 ops per pass -> p90 (10 beyond); one disturbed pass does
        # not move the median, and the sample count is reported.
        calm = [i * 1000000 for i in range(1, 101)]
        noisy = [50 * x for x in calm]
        passes = [make_pass(1.0, 1.0, 1, lat) for lat in (calm, noisy, calm)]
        value_ms, pct, samples, beyond = metrics.op_tail(passes)
        self.assertEqual((pct, samples, beyond), (90.0, 100, 10))
        self.assertAlmostEqual(value_ms, 90.0)
        self.assertGreaterEqual(beyond, metrics.MIN_BEYOND)


class RatioBases(unittest.TestCase):
    def test_amplification_bases(self):
        raw = make_raw([make_pass(1.0, 2.0, 4000000, [1000] * 10)])
        e2e, bases = metrics.end_to_end(raw)
        self.assertEqual(e2e["read_amp"], (0.25, "B/B"))     # 300 / 1200
        self.assertEqual(e2e["write_amp"], (0.05, "B/B"))    # 50 / 1000
        self.assertEqual(e2e["space_amp"], (0.25, "B/B"))    # 10 / 40
        self.assertIn("300 bytes pread / 1200 user bytes returned", bases["read_amp"])

    def test_rates_are_medians_of_per_pass_rates(self):
        raw = make_raw([make_pass(1.0, 2.0, 10000000, [1] * 100, heap_bytes=1000000),
                        make_pass(2.0, 2.0, 10000000, [1] * 100, heap_bytes=4000000),
                        make_pass(4.0, 5.0, 10000000, [1] * 100, heap_bytes=2000000)])
        e2e, _ = metrics.end_to_end(raw)
        self.assertAlmostEqual(e2e["throughput_mb_s"][0], 5.0)   # 10, 5, 2.5 MB/s
        self.assertAlmostEqual(e2e["mb_per_cpu_s"][0], 5.0)      # 5, 5, 2 MB/cpu-s
        self.assertAlmostEqual(e2e["ops_s"][0], 50.0)            # 100, 50, 25 ops/s
        self.assertAlmostEqual(e2e["setup_s"][0], 2.0)           # median of 3, 1, 2 s
        self.assertAlmostEqual(e2e["peak_heap_mb"][0], 2.0)      # median of 1, 4, 2 MB

    def test_ok_ratio_counts_failures_against_attempts(self):
        raw = make_raw([make_pass(1.0, 1.0, 1, [1] * 10, ok=9),
                        make_pass(1.0, 1.0, 1, [1] * 10, ok=10)])
        e2e, bases = metrics.end_to_end(raw)
        self.assertAlmostEqual(e2e["op_ok_ratio"][0], 0.95)
        self.assertEqual(bases["op_ok_ratio"], "19 verified / 20 attempted ops")

    def test_empty_base_gives_zero(self):
        self.assertEqual(metrics.ratio(5, 0), 0.0)
        self.assertEqual(metrics.ratio(6, 3), 2.0)

    def test_counts_repeat(self):
        a = make_pass(1.0, 1.0, 7, [1, 2], io={"bytes_read": 9})
        b = make_pass(2.0, 3.0, 7, [5, 6], io={"bytes_read": 9})
        c = make_pass(1.0, 1.0, 7, [1, 2], io={"bytes_read": 8})
        self.assertTrue(metrics.counts_repeat([a, b]))
        self.assertFalse(metrics.counts_repeat([a, c]))


class Spans(unittest.TestCase):
    LINES = [
        "0\t-1\t7\t0\tbench.op\t0\t100\t0\n",
        "1\t0\t7\t0\tdataset.find\t10\t40\t0\n",
        "2\t0\t7\t0\tformat.delete\t50\t90\t0\n",
        "3\t-1\t0\t0\tencoding.decode\t200\t300\t2000000\n",
        "malformed line\n",
    ]

    def test_self_time_subtracts_children(self):
        spans = metrics.parse_spans(self.LINES)
        self.assertEqual(len(spans), 4)
        own = metrics.self_times(spans)
        self.assertEqual(own[0], 100 - 30 - 40)
        self.assertEqual(own[1], 30)
        by_layer = metrics.op_self_by_layer(spans)
        self.assertEqual(by_layer, {"bench": 30, "dataset": 30, "format": 40})

    def test_per_layer_reports_every_metric(self):
        spans = metrics.parse_spans(self.LINES)
        passes = [make_pass(1.0, 1.0, 1, [1000] * 30)]
        raw = make_raw(passes, traced=passes, counters={"ops": 30, "io.preads": 60})
        layer = metrics.per_layer(raw, spans)
        self.assertEqual(list(layer), [name for name, _, _ in metrics.PER_LAYER])
        self.assertEqual(layer["io.preads_per_op"], (2.0, "count/op"))
        self.assertAlmostEqual(layer["encoding.decode_mb_s"][0], 2e7)  # 2 MB / 100 ns
        self.assertAlmostEqual(layer["format.delete_p50_us"][0], 0.04)


class OutputShape(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_last_line_has_exactly_the_contract_keys(self):
        raw = make_raw([make_pass(1.0, 1.0, 5, [1] * 40)] * 3)
        e2e, _ = metrics.end_to_end(raw)
        out = json.loads(json.dumps(metrics.result(e2e, 120, 0)))
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(out["correct"], True)
        self.assertIsInstance(out["attempted"], int)
        self.assertIsInstance(out["failed"], int)
        for m in out["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertIsInstance(m["value"], float)
        self.assertFalse(metrics.result(e2e, 120, 1)["correct"])

    def test_metric_names_and_units_match_benchmark_json(self):
        raw = make_raw([make_pass(1.0, 1.0, 5, [1] * 40)] * 3)
        e2e, _ = metrics.end_to_end(raw)
        declared = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual({k: u for k, (_, u) in e2e.items()}, declared)
        declared_layer = [(m["name"], m["unit"], m["better"]) for m in self.bench["per_layer"]]
        self.assertEqual(declared_layer, list(metrics.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
