#!/usr/bin/env python3
"""Paired perf guard: the working tree against a base revision, via perfbench.

    python3 tools/paired_bench.py <base-rev>

Run from anywhere inside a checkout of the change. The guard exports
<base-rev> with `git archive`, and copies the checkout's working tree
(tracked and untracked files, minus ignored ones), into a temporary
directory. Each side is built and run from one shared source path: its tree
is moved there for its build and for each of its runs, and moved back
after. The build directory is part of what the compiler hashes into a
binary, so identical sources built from two paths give different binaries;
from one path they give identical ones (the guard prints both binaries'
SHA-256). Each side builds perfbench into its own CARGO_TARGET_DIR, then
the guard runs 5 pairs, alternating which side goes first. One run of a
side is `perfbench/run.py` on seed 1 for 2 s: the plain pass of every
workload, plus a traced solo-h264 pass for `block_p50_us` and
`ingest.lower_ms`. The guard times nothing itself.

A metric is flagged when the change's median is worse than the base's by
more than the metric's `bound` in BENCHMARK.json (0.25 for the two per-layer
metrics) *and* the change is worse in at least 4 of the 5 pairs. A run whose
output checks fail (`correct: false`, or no result at all) fails the guard.
The guard writes BENCH_perf.json at the root of the checkout (per workload
and metric: the base median, the change median and the pairs lost) and exits
with 1 if anything is flagged.
"""

import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("solo-h264", "multitask-slo", "fleet-churn")
PAIRS = 5
MIN_PAIRS_LOST = 4
SEED = 1
SECONDS = 2
# Per-layer metrics read from the traced solo-h264 pass, with their bound.
TRACED_WORKLOAD = "solo-h264"
PER_LAYER_BOUNDS = {"block_p50_us": 0.25, "ingest.lower_ms": 0.25}


def guarded_metrics(spec):
    """{(workload, metric): (better, bound)} for every guarded metric."""
    guarded = {(w, m["name"]): (m["better"], m["bound"])
               for w in WORKLOADS for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        if m["name"] in PER_LAYER_BOUNDS:
            guarded[(TRACED_WORKLOAD, m["name"])] = (m["better"], PER_LAYER_BOUNDS[m["name"]])
    return guarded


def loss(base, change, better):
    """How much worse `change` is than `base`, as a share of `base`."""
    worse_by = change - base if better == "lower" else base - change
    if base == 0:
        return math.copysign(math.inf, worse_by) if worse_by else 0.0
    return worse_by / abs(base)


def decide(pairs, guarded):
    """Judges `pairs`, a list of (base run, change run).

    A run is a {(workload, metric): value} dict, or None if it failed its
    output checks. Returns (rows, failures): one row per guarded metric
    present in every run, and the reasons the guard fails (empty = pass).
    """
    failures = []
    if any(r is None for pair in pairs for r in pair):
        failures.append("a perfbench run failed its output checks")
    complete = [(b, c) for b, c in pairs if b is not None and c is not None]
    rows = []
    for key, (better, bound) in guarded.items():
        if not complete or any(key not in r for pair in complete for r in pair):
            continue
        base = [b[key] for b, _ in complete]
        change = [c[key] for _, c in complete]
        row = {
            "workload": key[0],
            "metric": key[1],
            "base": statistics.median(base),
            "change": statistics.median(change),
            "pairs_lost": sum(loss(b, c, better) > 0 for b, c in zip(base, change)),
        }
        row["loss"] = loss(row["base"], row["change"], better)
        row["flagged"] = row["loss"] > bound and row["pairs_lost"] >= MIN_PAIRS_LOST
        if row["flagged"]:
            failures.append(f"{key[0]} {key[1]}: {row['loss']:+.1%} in the median, "
                            f"worse in {row['pairs_lost']} of {len(complete)} pairs")
        rows.append(row)
    return rows, failures


@contextlib.contextmanager
def placed(tree, shared):
    """Moves `tree` to the `shared` source path, and back on leaving."""
    os.rename(tree, shared)
    try:
        yield shared
    finally:
        os.rename(shared, tree)


def build(side, target):
    """Builds perfbench in `side`; returns the binary's SHA-256."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(side, "perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=side, env=env).returncode != 0:
        sys.exit(f"paired_bench: building perfbench in {side} failed")
    with open(os.path.join(target, "release", "mrts-perfbench"), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def perfbench(side, target, workload, trace):
    """One run.py invocation: {metric: value}, or None if it failed."""
    cmd = [sys.executable, os.path.join(side, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=side, env=env, capture_output=True, text=True)
    try:
        out = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        out = {}
    if done.returncode != 0 or not out.get("correct"):
        sys.stderr.write(done.stderr)
        print(f"paired_bench: {workload} (trace {trace}) failed in {side}", file=sys.stderr)
        return None
    return {k: v["value"] for k, v in out["metrics"].items()}


def run_side(side, target):
    """One run of a side: {(workload, metric): value}, or None."""
    run = {}
    for workload in WORKLOADS:
        metrics = perfbench(side, target, workload, 0)
        if metrics is None:
            return None
        run.update({(workload, k): v for k, v in metrics.items()})
    traced = perfbench(side, target, TRACED_WORKLOAD, 1)
    if traced is None:
        return None
    run.update({(TRACED_WORKLOAD, k): traced[k] for k in PER_LAYER_BOUNDS if k in traced})
    return run


def export(rev, dest):
    """Writes the tree of `rev` into `dest`; returns the full commit id."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                         capture_output=True, text=True)
    if sha.returncode != 0:
        sys.exit(f"paired_bench: unknown revision {rev!r}")
    sha = sha.stdout.strip()
    archive = dest + ".tar"
    with open(archive, "wb") as f:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha], stdout=f, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    os.remove(archive)
    return sha


def copy_worktree(root, dest):
    """Copies the working tree of the checkout at `root` into `dest`: the
    tracked files as they are on disk and the untracked ones git does not
    ignore."""
    listed = subprocess.run(["git", "-C", root, "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], capture_output=True, check=True).stdout
    for rel in map(os.fsdecode, filter(None, listed.split(b"\0"))):
        src = os.path.join(root, rel)
        if not os.path.lexists(src):
            continue  # tracked, but deleted in the working tree
        os.makedirs(os.path.join(dest, os.path.dirname(rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel), follow_symlinks=False)


def report(rows, failures, base_sha, pairs_run, binaries):
    print(f"{'workload':<14} {'metric':<20} {'base':>12} {'change':>12} {'loss':>8} "
          f"{'lost':>5}  verdict")
    for r in rows:
        verdict = "FLAGGED" if r["flagged"] else "ok"
        print(f"{r['workload']:<14} {r['metric']:<20} {r['base']:>12.4g} {r['change']:>12.4g} "
              f"{r['loss']:>+8.1%} {r['pairs_lost']:>3}/{pairs_run}  {verdict}")
    trajectory = {"base": base_sha, "pairs": pairs_run, "seed": SEED, "seconds": SECONDS,
                  "perfbench_sha256": binaries, "workloads": {}}
    for r in rows:
        trajectory["workloads"].setdefault(r["workload"], {})[r["metric"]] = {
            "base_median": r["base"], "change_median": r["change"],
            "pairs_lost": r["pairs_lost"]}
    with open(os.path.join(ROOT, "BENCH_perf.json"), "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    for reason in failures:
        print(f"paired_bench: FAILED: {reason}")
    if not failures:
        print(f"paired_bench: passed ({pairs_run} pairs against {base_sha[:12]})")


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit("usage: python3 tools/paired_bench.py <base-rev>")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        guarded = guarded_metrics(json.load(f))
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        shared = os.path.join(tmp, "src")
        sides = {"base": (os.path.join(tmp, "base"), os.path.join(tmp, "base-target")),
                 "change": (os.path.join(tmp, "change"), os.path.join(tmp, "change-target"))}
        base_sha = export(sys.argv[1], sides["base"][0])
        copy_worktree(ROOT, sides["change"][0])
        binaries = {}
        for name, (tree, target) in sides.items():
            with placed(tree, shared):
                binaries[name] = build(shared, target)
        same = "identical" if binaries["base"] == binaries["change"] else "different"
        print(f"perfbench binaries: base {binaries['base'][:16]}, "
              f"change {binaries['change'][:16]} ({same})")
        pairs = []
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            runs = {}
            for name in order:
                tree, target = sides[name]
                with placed(tree, shared):
                    runs[name] = run_side(shared, target)
                if runs[name] is None:
                    break
            pairs.append((runs.get("base"), runs.get("change")))
            print(f"pair {i + 1}/{PAIRS} done ({order[0]} first)", file=sys.stderr)
            if None in pairs[-1]:
                break
    rows, failures = decide(pairs, guarded)
    report(rows, failures, base_sha, len(pairs), binaries)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
