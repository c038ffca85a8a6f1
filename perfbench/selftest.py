#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py            # unit tests, no JVM
    python3 perfbench/selftest.py --smoke    # plus a short run of each workload

The unit tests cover the tail-percentile rule, span self-time arithmetic and
the agreement of BENCHMARK.json with the metrics run.py prints. The smoke
runs start each workload for a few seconds with a seed the benchmark is not
tuned on, and check that the simulator's calibrated workload prunes the
fraction EXPERIMENTS.md reports (0.945).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_ten_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertTrue(stats.supported(100, 90))
        self.assertFalse(stats.supported(99, 90))
        self.assertTrue(stats.supported(1000, 99))
        self.assertFalse(stats.supported(999, 99))
        self.assertTrue(stats.supported(40, 75))
        self.assertFalse(stats.supported(39, 75))

    def test_run_lengths_support_each_tail(self):
        # Sample counts a run of BENCHMARK.json's length gives at the parent
        # commit, with a margin for slower machines.
        for workload, n in (("mpt_selective", 42), ("sim_workload", 20000)):
            self.assertTrue(stats.supported(n, run.TAIL[workload]), workload)
        self.assertIsNone(run.TAIL["mpt_scan"])


def span(sid, parent, start, end, name="x.y", busy=None):
    return {"id": sid, "parent": parent, "start": start, "end": end, "name": name,
            "busy": end - start if busy is None else busy}


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(stats.self_times([span(1, 0, 5, 25)]), {1: 20})

    def test_overlapping_children_count_once(self):
        st = stats.self_times([span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50)])
        self.assertEqual(st[1], 60)
        self.assertEqual(st[2], 20)

    def test_children_clipped_to_parent(self):
        st = stats.self_times([span(1, 0, 0, 100), span(2, 1, 90, 120), span(3, 1, -10, 5)])
        self.assertEqual(st[1], 85)

    def test_grandchildren_only_reduce_their_parent(self):
        st = stats.self_times([span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 40)])
        self.assertEqual(st[1], 50)
        self.assertEqual(st[2], 30)
        self.assertEqual(st[3], 20)

    def test_layer_totals(self):
        spans = [span(1, 0, 0, 100, "spark.query"), span(2, 1, 10, 60, "mpt.read"),
                 span(3, 1, 40, 70, "mpt.read"), span(4, 0, 200, 210, "core.classify")]
        self.assertEqual(stats.layer_totals(spans),
                         {"spark": (40, 1), "mpt": (80, 2), "core": (10, 1)})

    def test_reader_idle_time_stays_with_the_query(self):
        # A reader open for 60 but busy for 15: Spark used the other 45.
        st = stats.self_times([span(1, 0, 0, 100, "spark.query"), span(2, 1, 10, 20, "mpt.plan"),
                               span(3, 1, 20, 80, "mpt.reader.read", busy=15)])
        self.assertEqual(st[3], 15)
        self.assertEqual(st[2], 10)
        self.assertEqual(st[1], 75)

    def test_parallel_readers_share_their_busy_fraction(self):
        # Two readers cover [20, 90]; together they were busy 50 of their 120.
        st = stats.self_times([span(1, 0, 0, 100), span(2, 1, 20, 80, busy=15), span(3, 1, 30, 90, busy=35)])
        self.assertEqual((st[2], st[3]), (15, 35))
        self.assertAlmostEqual(st[1], 100 - 70 * 50 / 120)

    def test_covered(self):
        self.assertEqual(stats.covered([], 0, 10), 0)
        self.assertEqual(stats.covered([(0, 4), (6, 8), (7, 20)], 0, 10), 8)


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names_and_units_match_run_py(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]), run.WORKLOADS)

    def test_latency_vs_ref(self):
        samples = [(0, "scan", 30.0), (0, "scan", 50.0), (1, "filter", 10.0)]
        ref = [(0, "scan", 20.0), (1, "filter", 40.0), (2, "join", 5.0)]
        self.assertAlmostEqual(run.latency_vs_ref("mpt_scan", samples, ref), (2.0 * 0.25) ** 0.5)
        self.assertAlmostEqual(run.latency_vs_ref("sim_workload", samples, ref), 15000.0 ** (1 / 3) / (65.0 / 3))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


def run_once(workload, seed, seconds=2, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"{workload} exited {p.returncode}: {p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1]), p.stdout


class Smoke(unittest.TestCase):
    def test_each_workload_with_a_second_seed(self):
        for workload in run.WORKLOADS:
            for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    res, out = run_once(workload, 987654, trace=trace)
                    self.assertTrue(res["correct"], out)
                    self.assertEqual(res["failed"], 0)
                    self.assertEqual(set(res["metrics"]), set(names))

    def test_simulator_pruned_fraction_at_seed_42(self):
        res, _ = run_once("sim_workload", 42)
        self.assertEqual(round(res["metrics"]["pruned_frac"]["value"], 3), 0.945)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    argv = [a for a in sys.argv if a != "--smoke"]
    if not smoke:
        argv += ["PercentileRule", "SelfTime", "BenchmarkFile"]
    unittest.main(argv=argv)
