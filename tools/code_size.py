#!/usr/bin/env python3
"""Code size of the workspace crates: non-test lines and public items.

    python3 tools/code_size.py [ROOT]

ROOT is a checkout (default: the one holding this script). For every
`crates/<crate>/src/**/*.rs` file the tool counts the lines before the
file's first top-level `#[cfg(test)]` (a line that starts with it, not
indented), or every line when there is none. Among those lines it counts
the `pub` declarations: `fn` (also `const fn`, `unsafe fn`, `async fn`,
`extern fn`), `struct`, `enum`, `trait`, `type`, `const`, `static` and
`mod`. Restricted visibility such as `pub(crate)` is not public and does
not count, and neither do `pub use` re-exports or `pub` struct fields.

It prints one row per crate and a total row. Below the table it lists,
per crate, the public declarations whose name no file outside the
crate's library target holds as a word. Outside means any other crate,
the crate's own binaries (`src/bin/**`, `src/main.rs`) and tests
(`tests/`), and `tests/`, `examples/`, `src/` and `perfbench/src/` at the
top: each compiles as a separate crate that sees only `pub` items. A
binary's own `pub` declarations have no outside user and are all listed.
A name shared with another item counts as named, so the list is a floor.

The list is a gate. `ALLOWED` names, per crate, each declaration that
stays `pub` only because a public signature an outside user needs
exposes it. The tool exits 1 when the list holds a name `ALLOWED` does
not, or when an `ALLOWED` name has left the list (a stale entry).
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Each `pub` declaration no outside user names, kept `pub` because a
# public signature that one does use exposes it: name -> that signature.
ALLOWED = {
    "arch": {
        "CgOpTiming": "type of the pub field `ArchParams::cg_op_timing`",
        "Frequency": "type of the pub fields `ArchParams::{core,cg,fg}_clock`",
        "LoadTicket": "returned by `Machine::load_fg`/`load_cg` (the sim engine "
        "reads `ready_at`) and `ReconfigurationController::inflight_tickets` "
        "(core's memo key)",
    },
    "bench": {
        "Figure": "returned by `figures::Opts::parse`; `src/bin/figure.rs` "
        "calls its `run`",
    },
    "core": {
        "Profit": "type of the pub field `MrtsConfig::profit` (the figures "
        "build `MrtsConfig` with struct-update syntax)",
        "ProfitBreakdown": "returned by `expected_profit` "
        "(`tests/paper_properties.rs`, `tests/selector_equivalence.rs`)",
        "Search": "type of the pub field `MrtsConfig::search`",
        "SelectedIse": "element of the pub field `Selection::selected` "
        "(`tests/selector_*.rs`)",
        "StageProfit": "element of the pub field `ProfitBreakdown::stages`",
    },
    "fleet": {
        "RegistryError": "returned by `AppRegistry::new` (`mrts-cli fleet`)",
    },
    "ingest": {
        "ClusterInfo": "element of the pub field `Lowered::clusters` "
        "(`mrts-cli ingest --lower`)",
        "DceStats": "type of the pub field `Lowered::dce` (`mrts-cli ingest`, "
        "`tests/ingest_properties.rs`)",
        "EventProfile": "returned by `events::profile_jsonl` "
        "(`mrts-cli ingest --replay`, `tests/ingest_properties.rs`)",
        "Lowered": "returned by `lower` (`mrts-cli ingest`, "
        "`tests/ingest_properties.rs`)",
        "TradeoffPoint": "returned by `passes::tradeoff_points` "
        "(`mrts-cli ingest --lower`)",
    },
    "ise": {
        "CgImpl": "returned by `mapping::map_to_cg` (mrts-sim's EDPE tests, "
        "`tests/edpe_validation.rs`)",
        "DataPathGraphBuilder": "returned by `DataPathGraph::builder` "
        "(ingest, perfbench, tests)",
        "DataPathSpec": "element of `KernelSpec::data_paths` (ingest, "
        "`tests/edpe_validation.rs`)",
        "LoadUnit": "returned by `IseCatalog::unit`/`units` (sim, core, cli)",
    },
    "sim": {
        "ContextProgram": "returned by `edpe::compile_graph` "
        "(`tests/edpe_validation.rs`)",
        "EdpeError": "error of `edpe::compile_graph` and "
        "`EdpeInterpreter::execute` (`tests/edpe_validation.rs`)",
        "ExecOutcome": "returned by `EdpeInterpreter::execute` "
        "(`tests/edpe_validation.rs`)",
        "RejectReason": "field of `SimEvent::LoadRejected`",
    },
    "workload": {
        "MacroblockFeatures": "element of the pub field "
        "`FrameStats::macroblocks` (ingest's rate rules)",
        "VideoModelBuilder": "returned by `VideoModel::builder` (perfbench, "
        "tests)",
    },
}

TEST_MODULE = re.compile(r"#\[cfg\(test\)\]")
PUB_ITEM = re.compile(
    r"^\s*pub\s+"
    r"(?:(?:const|unsafe|async|extern(?:\s+\"[^\"]*\")?)\s+)*"
    r"(?:fn|struct|enum|trait|type|const|static|mod)\b"
    r"\s*(?:r#)?(\w*)"
)
WORD = re.compile(r"\w+")
# Where other crates' code lives, besides `crates/*/`.
OUTSIDE = ("tests", "examples", "src", os.path.join("perfbench", "src"))


def non_test_lines(text):
    """The lines of one source file before its first top-level
    `#[cfg(test)]`."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if TEST_MODULE.match(line):
            return lines[:i]
    return lines


def count_file(text):
    """(non-test lines, public declarations) of one source file."""
    lines = non_test_lines(text)
    return len(lines), len(pub_names(lines))


def pub_names(lines):
    """The names of the public declarations among `lines`, in order."""
    return [m.group(1) for m in map(PUB_ITEM.match, lines) if m]


def rust_files(top):
    """Every `.rs` file under `top`, in a stable order."""
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".rs"):
                yield os.path.join(dirpath, name)


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def crate_sizes(root):
    """{crate: (non-test lines, public declarations)} over
    `root/crates/*/src`, crates in name order."""
    sizes = {}
    for crate, src in crate_dirs(root):
        lines = items = 0
        for path in rust_files(src):
            n, p = count_file(read(path))
            lines += n
            items += p
        sizes[crate] = (lines, items)
    return sizes


def crate_dirs(root):
    """(crate, its `src` directory) of every crate under `root/crates`,
    in name order."""
    crates_dir = os.path.join(root, "crates")
    for crate in sorted(os.listdir(crates_dir)):
        src = os.path.join(crates_dir, crate, "src")
        if os.path.isdir(src):
            yield crate, src


def lib_files(root, crate):
    """The `.rs` files of `crate`'s library target: `src/**` but not
    `src/bin/**` or `src/main.rs`, which compile as separate binary
    crates. A crate without `src/lib.rs` has no library: empty."""
    src = os.path.join(root, "crates", crate, "src")
    if not os.path.isfile(os.path.join(src, "lib.rs")):
        return []
    binaries = (os.path.join(src, "bin") + os.sep, os.path.join(src, "main.rs"))
    return [p for p in rust_files(src) if not p.startswith(binaries)]


def unnamed_elsewhere(root):
    """{crate: sorted names of its public declarations that no file
    outside the crate's library target names as a word}.

    A crate's binaries (`src/bin/**`, `src/main.rs`) and its `tests/`
    see only its library's `pub` items, like any other crate, so they
    count as outside users. Nothing outside a binary can name its items:
    each `pub` declaration in a binary is listed."""
    files = {}
    for top in ("crates",) + OUTSIDE:
        for path in rust_files(os.path.join(root, top)):
            files[path] = set(WORD.findall(read(path)))
    unnamed = {}
    for crate, src in crate_dirs(root):
        lib = set(lib_files(root, crate))
        named = set().union(*(w for p, w in files.items() if p not in lib))
        listed = set()
        for path in rust_files(src):
            names = set(pub_names(non_test_lines(read(path))))
            listed.update(names - named if path in lib else names)
        # A macro's declaration has no literal name to look for.
        listed.discard("")
        unnamed[crate] = sorted(listed)
    return unnamed


def unnamed_table(unnamed):
    """The printed list: per crate, the count and the names."""
    width = max([len("total")] + [len(c) for c in unnamed])
    rows = ["pub items no outside user names:"]
    for crate, names in unnamed.items():
        rows.append(f"{crate:<{width}}  {len(names):>5}  {' '.join(names)}".rstrip())
    total = sum(len(names) for names in unnamed.values())
    rows.append(f"{'total':<{width}}  {total:>5}")
    return "\n".join(rows)


def table(sizes):
    """The printed table: one row per crate, then the total."""
    width = max([len("total")] + [len(c) for c in sizes])
    rows = [f"{'crate':<{width}}  {'lines':>7}  {'pub':>5}"]
    for crate, (lines, items) in sizes.items():
        rows.append(f"{crate:<{width}}  {lines:>7}  {items:>5}")
    total_lines = sum(lines for lines, _ in sizes.values())
    total_items = sum(items for _, items in sizes.values())
    rows.append(f"{'total':<{width}}  {total_lines:>7}  {total_items:>5}")
    return "\n".join(rows)


def gate(unnamed, allowed):
    """The gate's complaints, one line each: listed names `allowed` does
    not hold, then `allowed` names no longer listed."""
    problems = []
    for crate, names in unnamed.items():
        for name in names:
            if name not in allowed.get(crate, {}):
                problems.append(f"{crate}: `{name}` is pub but no outside user "
                                "names it: make it pub(crate), delete it, or "
                                "allowlist the signature that needs it")
    for crate, names in allowed.items():
        for name in names:
            if name not in unnamed.get(crate, []):
                problems.append(f"{crate}: allowlisted `{name}` is no longer "
                                "listed: drop its ALLOWED entry")
    return problems


def main(argv):
    if len(argv) > 2:
        print("usage: code_size.py [ROOT]", file=sys.stderr)
        return 2
    root = argv[1] if len(argv) == 2 else ROOT
    print(table(crate_sizes(root)))
    print()
    unnamed = unnamed_elsewhere(root)
    print(unnamed_table(unnamed))
    problems = gate(unnamed, ALLOWED)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
