"""Self-test of the benchmark's statistics helpers.

Run with `python3 perfbench/test_stats.py`; perfbench/run.py also runs it
before every measurement and refuses to report if it fails.
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_known_arrays(self):
        one_to_hundred = list(range(1, 101))
        self.assertEqual(stats.percentile(one_to_hundred, 50), 50)
        self.assertEqual(stats.percentile(one_to_hundred, 90), 90)
        self.assertEqual(stats.percentile(one_to_hundred, 99), 99)
        self.assertEqual(stats.percentile(one_to_hundred, 100), 100)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)
        self.assertEqual(stats.percentile([7], 99), 7)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 51), 3)

    def test_rank_is_exact(self):
        # 0.99 * 1000 = 990.0000000000001 in floating point; the rank must
        # still be 990, leaving exactly 10 samples beyond.
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99), 990)
        self.assertEqual(stats.beyond(1000, 99.9), 1)

    def test_value_is_measured(self):
        values = [0.5, 10.25, 3.125, 7.0, 1.0]
        for p in (1, 25, 50, 75, 90, 99, 100):
            self.assertIn(stats.percentile(values, p), values)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(15))
        self.assertIsNone(stats.tail_percentile(99))
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_rule_leaves_ten_beyond(self):
        for n in (100, 137, 1000, 1093, 4372, 10000, 12345):
            p = stats.tail_percentile(n)
            self.assertGreaterEqual(stats.beyond(n, p), stats.TAIL_MIN_BEYOND)
            higher = [q for q in stats.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(stats.beyond(n, q), stats.TAIL_MIN_BEYOND)


class Series(unittest.TestCase):
    def test_p50_not_above_tail(self):
        for values in ([5.0] * 50, list(range(200)), [1, 9, 2, 8, 3, 7] * 40):
            s = stats.summarize(values, 99)
            self.assertLessEqual(s["p50"], s["tail"])

    def test_kinds_stay_separate(self):
        # A slow kind (a ~175 ms set-up step) next to a fast kind (~0.3 ms
        # operations) must not leak into the fast kind's figures; pooling
        # them is what once reported a p50 above its p99.
        fast = [0.30 + 0.001 * i for i in range(200)]
        slow = [175.0, 176.0, 174.0]
        s = stats.summarize(fast, 99)
        self.assertLess(s["tail"], 1.0)
        self.assertLessEqual(s["p50"], s["tail"])
        self.assertEqual(s["n"], len(fast))
        self.assertLessEqual(stats.summarize(slow, 90)["p50"], 176.0)

    def test_summary_reports_beyond_count(self):
        s = stats.summarize(list(range(1, 1094)), 99)
        self.assertEqual(s["n"], 1093)
        self.assertEqual(s["beyond"], 10)
        self.assertEqual(s["rule_p"], 99.0)


if __name__ == "__main__":
    unittest.main()
