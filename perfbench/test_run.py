"""Tests for the benchmark harness's own logic (no driver build needed).

    python3 perfbench/test_run.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileSupport(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(run.percentile(samples, 50), 50)
        self.assertEqual(run.percentile(samples, 90), 90)
        self.assertEqual(run.percentile(samples, 99), 99)
        self.assertEqual(run.percentile([7.0], 99), 7.0)

    def test_ten_samples_beyond(self):
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertTrue(run.percentile_supported(100, 90))
        self.assertFalse(run.percentile_supported(99, 90))
        self.assertTrue(run.percentile_supported(1000, 99))
        self.assertFalse(run.percentile_supported(999, 99))
        self.assertFalse(run.percentile_supported(0, 50))

    def test_highest_supported(self):
        self.assertEqual(run.highest_supported_percentile(1000), 99)
        self.assertEqual(run.highest_supported_percentile(200), 95)
        self.assertEqual(run.highest_supported_percentile(100), 90)
        self.assertEqual(run.highest_supported_percentile(40), 75)
        self.assertIsNone(run.highest_supported_percentile(15))


def span(name, tid, ts, dur):
    return {"name": name, "ph": "X", "tid": tid, "ts": ts, "dur": dur}


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # tid 1:  A [0,100] > B [10,40] > C [20,30];  A > D [50,90]
        # tid 2:  E [0,50] overlaps A in time but is on another thread.
        events = [span("D", 1, 50, 40), span("A", 1, 0, 100),
                  span("C", 1, 20, 10), span("B", 1, 10, 30),
                  span("E", 2, 0, 50),
                  {"name": "flow", "ph": "s", "tid": 1, "ts": 5, "id": "1"}]
        totals = run.span_self_times(events)
        expect_self = {"A": 30, "B": 20, "C": 10, "D": 40, "E": 50}
        for name, us in expect_self.items():
            self.assertAlmostEqual(totals[name]["self"], us * 1e-6, places=12)
            self.assertEqual(totals[name]["count"], 1)
        self.assertAlmostEqual(totals["A"]["total"], 100e-6, places=12)
        # Self times of one thread add up to its root spans' durations.
        self.assertAlmostEqual(sum(totals[n]["self"] for n in "ABCD"),
                               100e-6, places=12)

    def test_siblings_touching_and_repeats(self):
        events = [span("P", 1, 0, 30), span("K", 1, 0, 10),
                  span("K", 1, 10, 10), span("K", 1, 20, 10)]
        totals = run.span_self_times(events)
        self.assertEqual(totals["K"]["count"], 3)
        self.assertAlmostEqual(totals["P"]["self"], 0.0, places=12)
        self.assertAlmostEqual(totals["K"]["self"], 30e-6, places=12)

    def test_flow_waits(self):
        events = [{"ph": "s", "id": "1", "ts": 100.0},
                  {"ph": "t", "id": "1", "ts": 350.0},
                  {"ph": "t", "id": "1", "ts": 900.0},
                  {"ph": "s", "id": "2", "ts": 0.0}]
        self.assertEqual(run.flow_waits(events), [250e-6])


class Ladder(unittest.TestCase):
    LADDER = [10, 20, 30, 40, 50]

    def climb(self, nominal_passed, limit):
        calls = []

        def evaluate(rate):
            calls.append(rate)
            return rate <= limit

        best, tried = run.select_max_rate(self.LADDER, 20, nominal_passed,
                                          evaluate)
        return best, tried, calls

    def test_climbs_until_first_failure(self):
        best, tried, calls = self.climb(True, 40)
        self.assertEqual(best, 40)
        self.assertEqual(tried, [(30, True), (40, True), (50, False)])

    def test_first_failure_ends_the_climb(self):
        # 40 would pass again, but a failed rung ends the ladder.
        calls = []

        def evaluate(rate):
            calls.append(rate)
            return rate != 30

        best, _ = run.select_max_rate(self.LADDER, 20, True, evaluate)
        self.assertEqual(best, 20)
        self.assertEqual(calls, [30])

    def test_failed_nominal_descends(self):
        best, tried, _ = self.climb(False, 10)
        self.assertEqual(best, 10)
        self.assertEqual(tried, [(10, True)])

    def test_nothing_passes(self):
        best, _, calls = self.climb(False, 0)
        self.assertEqual(best, 0)
        self.assertEqual(calls, [10])

    def test_out_of_time_keeps_best(self):
        best, tried = run.select_max_rate(self.LADDER, 20, True,
                                          lambda rate: None)
        self.assertEqual(best, 20)
        self.assertEqual(tried, [(30, None)])

    def test_top_rung(self):
        best, _, _ = self.climb(True, 1000)
        self.assertEqual(best, 50)

    def test_backlog(self):
        self.assertFalse(run.backlog_growing([2, 3, 1, 2] * 30))
        self.assertTrue(run.backlog_growing(list(range(120))))
        self.assertFalse(run.backlog_growing([50]))


SCHEDULED = 'print(\'{"event": "scheduled", "measured": 7}\', flush=True); '


class CrashAndHang(unittest.TestCase):
    def child(self, body, timeout_s=30.0):
        return run.run_process("child", [sys.executable, "-c",
                                         SCHEDULED + body], timeout_s)

    def test_abort_counts_every_request_failed(self):
        phase = self.child("import os; os.abort()")
        self.assertEqual(phase.status, "crashed")
        self.assertEqual(phase.detail, "SIGABRT")
        self.assertEqual(phase.scheduled, 7)
        self.assertEqual(run.serve_accounting(phase, planned=99), (7, 7, 0))
        self.assertFalse(run.rung_passes(phase, limit_s=1.0))

    def test_stall_is_killed_and_counted(self):
        phase = self.child("import time; time.sleep(60)", timeout_s=1.0)
        self.assertEqual(phase.status, "hung")
        self.assertLess(phase.wall_s, 30.0)
        self.assertEqual(run.serve_accounting(phase, planned=99), (7, 7, 0))
        self.assertFalse(run.rung_passes(phase, limit_s=1.0))

    def test_death_before_announcing_uses_planned_count(self):
        phase = run.run_process("child", [sys.executable, "-c",
                                          "import os; os.abort()"], 30.0)
        self.assertEqual(run.serve_accounting(phase, planned=99), (99, 99, 0))

    def test_clean_phase_is_parsed(self):
        result = ('print(\'{"requests": [[0.01, 0.0, "ok", true, false, 0, '
                  '50, 200], [0.02, 0.0, "queue_full", false, false, 1, 50, '
                  '200]]}\')')
        phase = self.child(result)
        self.assertEqual(phase.status, "ok")
        self.assertEqual(run.serve_accounting(phase, planned=99), (2, 1, 0))
        self.assertFalse(run.rung_passes(phase, limit_s=1.0))


if __name__ == "__main__":
    unittest.main()
