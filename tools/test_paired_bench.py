"""Unit tests of the paired guard: its decision rule on synthetic samples,
and how it places both sides' sources.

    python3 -m unittest discover -s tools
"""

import os
import subprocess
import tempfile
import unittest

from paired_bench import copy_worktree, decide, placed

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


class SharedSourcePath(unittest.TestCase):
    def test_each_side_runs_from_the_one_shared_path_and_goes_back(self):
        with tempfile.TemporaryDirectory() as tmp:
            shared = os.path.join(tmp, "src")
            for side in ("base", "change"):
                os.makedirs(os.path.join(tmp, side))
                with open(os.path.join(tmp, side, "side.txt"), "w") as f:
                    f.write(side)
            for side in ("base", "change", "base"):
                with placed(os.path.join(tmp, side), shared) as path:
                    self.assertEqual(path, shared)
                    with open(os.path.join(path, "side.txt")) as f:
                        self.assertEqual(f.read(), side)
                    self.assertFalse(os.path.exists(os.path.join(tmp, side)))
                self.assertFalse(os.path.exists(shared))
            with self.assertRaises(RuntimeError):
                with placed(os.path.join(tmp, "change"), shared):
                    raise RuntimeError("a failed build")
            self.assertTrue(os.path.isfile(os.path.join(tmp, "change", "side.txt")))

    def test_the_change_is_the_working_tree_without_ignored_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            root, dest = os.path.join(tmp, "checkout"), os.path.join(tmp, "copy")
            os.makedirs(os.path.join(root, "crates"))
            files = {".gitignore": "/target\n", "crates/lib.rs": "edited",
                     "crates/new.rs": "untracked", "gone.rs": "deleted",
                     "target/build.log": "ignored"}
            for rel, text in files.items():
                os.makedirs(os.path.dirname(os.path.join(root, rel)), exist_ok=True)
                with open(os.path.join(root, rel), "w") as f:
                    f.write(text)
            subprocess.run(["git", "init", "-q", root], check=True)
            subprocess.run(["git", "-C", root, "add", ".gitignore", "crates/lib.rs", "gone.rs"],
                           check=True)
            os.remove(os.path.join(root, "gone.rs"))
            copy_worktree(root, dest)
            copied = sorted(os.path.relpath(os.path.join(d, f), dest)
                            for d, _, fs in os.walk(dest) for f in fs)
            self.assertEqual(copied, [".gitignore", "crates/lib.rs", "crates/new.rs"])
            with open(os.path.join(dest, "crates", "lib.rs")) as f:
                self.assertEqual(f.read(), "edited")


if __name__ == "__main__":
    unittest.main()
