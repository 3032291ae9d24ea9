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

It prints one row per crate and a total row. The numbers inform; nothing
fails on them.
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
)


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
    return len(lines), sum(1 for line in lines if PUB_ITEM.match(line))


def crate_sizes(root):
    """{crate: (non-test lines, public declarations)} over
    `root/crates/*/src`, crates in name order."""
    crates_dir = os.path.join(root, "crates")
    sizes = {}
    for crate in sorted(os.listdir(crates_dir)):
        src = os.path.join(crates_dir, crate, "src")
        if not os.path.isdir(src):
            continue
        lines = items = 0
        for dirpath, dirnames, filenames in os.walk(src):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".rs"):
                    with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                        n, p = count_file(f.read())
                    lines += n
                    items += p
        sizes[crate] = (lines, items)
    return sizes


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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
