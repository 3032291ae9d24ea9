"""Unit tests of the paired guard: its decision rule on synthetic samples,
and how it places both sides' sources.

    python3 -m unittest discover -s tools
"""

import json
import os
import subprocess
import tempfile
import unittest

from paired_bench import (ROOT, as_shared, copy_worktree, decide, guarded_metrics, placed,
                          symbol_sizes)

KEY = ("solo-h264", "blocks_per_s")
GUARDED = {KEY: ("higher", 0.25)}
BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0]


def pairs(change):
    return [({KEY: b}, {KEY: c}) for b, c in zip(BASE, change)]


class DecisionRule(unittest.TestCase):
    def test_a_30_percent_loss_in_every_pair_is_flagged(self):
        rows, failures = decide(pairs([b * 0.7 for b in BASE]), GUARDED)
        self.assertTrue(rows[0]["flagged"])
        self.assertEqual(rows[0]["pairs_lost"], 6)
        self.assertEqual(len(failures), 1)

    def test_a_30_percent_median_loss_in_4_of_6_pairs_is_flagged(self):
        change = [70.0, 70.0, 69.0, 70.0, 120.0, 130.0]
        rows, failures = decide(pairs(change), GUARDED)
        self.assertAlmostEqual(rows[0]["loss"], 0.30)
        self.assertEqual(rows[0]["pairs_lost"], 4)
        self.assertTrue(rows[0]["flagged"])
        self.assertEqual(len(failures), 1)

    def test_a_30_percent_median_loss_in_3_of_6_pairs_passes(self):
        change = [40.0, 40.0, 40.0, 101.0, 120.0, 130.0]
        rows, failures = decide(pairs(change), GUARDED)
        self.assertGreater(rows[0]["loss"], 0.25)
        self.assertEqual(rows[0]["pairs_lost"], 3)
        self.assertFalse(rows[0]["flagged"])
        self.assertEqual(failures, [])

    def test_a_10_percent_loss_in_every_pair_passes(self):
        rows, failures = decide(pairs([b * 0.9 for b in BASE]), GUARDED)
        self.assertEqual(rows[0]["pairs_lost"], 6)
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


class GuardedMetrics(unittest.TestCase):
    def test_trace_build_time_is_guarded_on_the_traced_pass(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            guarded = guarded_metrics(json.load(f))
        key = ("solo-h264", "workload.trace_ms")
        self.assertEqual(guarded[key], ("lower", 0.25))
        for workload in ("multitask-slo", "fleet-churn"):
            self.assertNotIn((workload, "workload.trace_ms"), guarded)
        base = [24.0, 25.0, 23.5, 24.5, 26.0, 24.0]
        slower = [({key: b}, {key: b * 1.3}) for b in base]
        rows, failures = decide(slower, {key: guarded[key]})
        self.assertTrue(rows[0]["flagged"])
        self.assertEqual(len(failures), 1)

    def test_block_planning_time_is_guarded_on_the_traced_pass(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            guarded = guarded_metrics(json.load(f))
        key = ("solo-h264", "core.plan_block.ns_p50")
        self.assertEqual(guarded[key], ("lower", 0.25))
        for workload in ("multitask-slo", "fleet-churn"):
            self.assertNotIn((workload, "core.plan_block.ns_p50"), guarded)
        base = [5400.0, 5500.0, 5350.0, 5450.0, 5600.0, 5400.0]
        slower = [({key: b}, {key: b * 1.3}) for b in base]
        rows, failures = decide(slower, {key: guarded[key]})
        self.assertTrue(rows[0]["flagged"])
        self.assertEqual(len(failures), 1)


LISTING = """\
                 U memmove@GLIBC_2.2.5
0000000000001000 T _init
0000000000002000 b <mrts_core::profit::walk_stages as an unsized symbol>
00000000000be7e0 000000000000066f t mrts_core::profit::walk_stages
00000000000bf000 000000000000142a T <mrts_core::runtime::Mrts as mrts_sim::policy::RuntimePolicy>::plan_block
00000000000c1000 0000000000000025 t <mrts_core::runtime::Mrts as mrts_sim::policy::RuntimePolicy>::plan_block::{{closure}}
00000000000c2000 0000000000000a9f t mrts_core::selector::RunView::advance
00000000000c3000 0000000000000100 t mrts_core::selector::select_ises_with
"""


class SymbolSizes(unittest.TestCase):
    def test_sized_symbols_are_matched_by_name_substring(self):
        sizes = symbol_sizes(LISTING)
        self.assertEqual(sizes["profit::walk_stages"], {"mrts_core::profit::walk_stages": 0x66f})
        self.assertEqual(sizes["RunView::advance"], {"mrts_core::selector::RunView::advance": 0xa9f})
        self.assertEqual(sorted(sizes["plan_block"].values()), [0x25, 0x142a])

    def test_unsized_undefined_and_unmatched_symbols_are_skipped(self):
        sizes = symbol_sizes(LISTING)
        self.assertEqual(sizes["select_ises_with_scratch"], {})
        self.assertEqual(sizes["step_activation"], {})
        self.assertEqual(symbol_sizes("", names=("plan_block",)), {"plan_block": {}})


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

    def test_both_sides_build_and_run_from_one_source_and_one_target_path(self):
        with tempfile.TemporaryDirectory() as tmp:
            sides = {}
            for side in ("base", "change"):
                sides[side] = (os.path.join(tmp, side), os.path.join(tmp, side + "-target"))
                for d in sides[side]:
                    os.makedirs(d)
                    with open(os.path.join(d, "side.txt"), "w") as f:
                        f.write(side)
            seen = set()
            for side in ("base", "change", "change", "base"):
                with as_shared(sides[side], tmp) as paths:
                    seen.add(paths)
                    for d in paths:
                        with open(os.path.join(d, "side.txt")) as f:
                            self.assertEqual(f.read(), side)
                for d in sides[side]:
                    self.assertTrue(os.path.isfile(os.path.join(d, "side.txt")))
            self.assertEqual(seen, {(os.path.join(tmp, "src"), os.path.join(tmp, "target"))})

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
