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
per crate, the public declarations whose name no other crate names: no
`.rs` file outside `crates/<crate>/` (under `crates/`, `tests/`,
`examples/`, `src/` or `perfbench/src/`) holds the name as a word. A
name shared with another item counts as named, so the list is a floor.
The numbers inform; nothing fails on them.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


def unnamed_elsewhere(root):
    """{crate: sorted names of its public declarations that no file
    outside `crates/<crate>/` names as a word}."""
    words = {}
    crates_dir = os.path.join(root, "crates")
    for crate in sorted(os.listdir(crates_dir)):
        words[crate] = set()
        for path in rust_files(os.path.join(crates_dir, crate)):
            words[crate].update(WORD.findall(read(path)))
    outside = set()
    for top in OUTSIDE:
        for path in rust_files(os.path.join(root, top)):
            outside.update(WORD.findall(read(path)))
    unnamed = {}
    for crate, src in crate_dirs(root):
        named = outside.union(*(w for c, w in words.items() if c != crate))
        declared = set()
        for path in rust_files(src):
            declared.update(pub_names(non_test_lines(read(path))))
        # A macro's declaration has no literal name to look for.
        declared.discard("")
        unnamed[crate] = sorted(declared - named)
    return unnamed


def unnamed_table(unnamed):
    """The printed list: per crate, the count and the names."""
    width = max([len("total")] + [len(c) for c in unnamed])
    rows = ["pub items no other crate names:"]
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


def main(argv):
    if len(argv) > 2:
        print("usage: code_size.py [ROOT]", file=sys.stderr)
        return 2
    root = argv[1] if len(argv) == 2 else ROOT
    print(table(crate_sizes(root)))
    print()
    print(unnamed_table(unnamed_elsewhere(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
