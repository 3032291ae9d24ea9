"""Unit tests of the paired guard's decision rule on synthetic samples.

    python3 -m unittest discover -s tools
"""

import unittest

from paired_bench import decide

KEY = ("solo-h264", "blocks_per_s")
GUARDED = {KEY: ("higher", 0.25)}
BASE = [100.0, 102.0, 98.0, 101.0, 99.0]


def pairs(change):
    return [({KEY: b}, {KEY: c}) for b, c in zip(BASE, change)]


class DecisionRule(unittest.TestCase):
    def test_a_30_percent_loss_in_every_pair_is_flagged(self):
        rows, failures = decide(pairs([b * 0.7 for b in BASE]), GUARDED)
        self.assertTrue(rows[0]["flagged"])
        self.assertEqual(rows[0]["pairs_lost"], 5)
        self.assertEqual(len(failures), 1)

    def test_a_30_percent_median_loss_in_3_of_5_pairs_passes(self):
        change = [70.0, 70.0, 69.0, 120.0, 130.0]
        rows, failures = decide(pairs(change), GUARDED)
        self.assertAlmostEqual(rows[0]["loss"], 0.30)
        self.assertEqual(rows[0]["pairs_lost"], 3)
        self.assertFalse(rows[0]["flagged"])
        self.assertEqual(failures, [])

    def test_a_10_percent_loss_in_every_pair_passes(self):
        rows, failures = decide(pairs([b * 0.9 for b in BASE]), GUARDED)
        self.assertEqual(rows[0]["pairs_lost"], 5)
        self.assertFalse(rows[0]["flagged"])
        self.assertEqual(failures, [])

    def test_a_failed_run_fails_the_guard(self):
        samples = pairs(BASE)
        samples[2] = (samples[2][0], None)
        rows, failures = decide(samples, GUARDED)
        self.assertFalse(rows[0]["flagged"])
        self.assertEqual(len(failures), 1)

    def test_a_lower_is_better_metric_is_judged_the_other_way(self):
        guarded = {KEY: ("lower", 0.25)}
        rows, _ = decide(pairs([b * 1.3 for b in BASE]), guarded)
        self.assertTrue(rows[0]["flagged"])
        rows, _ = decide(pairs([b * 0.7 for b in BASE]), guarded)
        self.assertFalse(rows[0]["flagged"])


if __name__ == "__main__":
    unittest.main()
