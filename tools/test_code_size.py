"""Unit tests of the code-size table: where a file's test code starts,
which lines are public declarations, which files count as outside users
and when the allowlist gate fails.

    python3 -m unittest discover -s tools
"""

import os
import tempfile
import unittest

from code_size import count_file, crate_sizes, gate, table, unnamed_elsewhere, unnamed_table

LIB = """\
//! A crate.
pub mod inner;
pub use inner::Thing;

pub struct Thing {
    pub field: u32,
}

impl Thing {
    pub const fn new() -> Self {
        Thing { field: 0 }
    }

    pub(crate) fn hidden(&self) {}

    pub fn shown(&self) {}
}
"""

TESTED = """\
pub enum Kind {
    A,
}
pub(crate) const LIMIT: u32 = 3;

#[cfg(test)]
mod tests {
    pub fn helper() {}
}
"""


class CountFile(unittest.TestCase):
    def test_a_file_without_a_test_module_counts_every_line(self):
        lines, _ = count_file(LIB)
        self.assertEqual(lines, len(LIB.splitlines()))

    def test_pub_const_fn_counts_and_pub_crate_does_not(self):
        # `pub mod`, `pub struct`, `pub const fn` and `pub fn`; not the
        # re-export, the field or `pub(crate) fn`.
        _, items = count_file(LIB)
        self.assertEqual(items, 4)

    def test_lines_stop_at_the_first_top_level_cfg_test(self):
        lines, items = count_file(TESTED)
        self.assertEqual(lines, 5)
        # `pub enum` only: `pub(crate) const` is restricted and the test
        # module's `pub fn` is test code.
        self.assertEqual(items, 1)

    def test_an_indented_cfg_test_does_not_end_the_file(self):
        text = "impl T {\n    #[cfg(test)]\n    fn t() {}\n    pub fn after() {}\n}\n"
        self.assertEqual(count_file(text), (5, 1))


class CrateSizes(unittest.TestCase):
    def test_crates_are_summed_over_nested_files_and_totalled(self):
        with tempfile.TemporaryDirectory() as root:
            for path, text in [
                ("crates/a/src/lib.rs", LIB),
                ("crates/a/src/bin/tool.rs", TESTED),
                ("crates/b/src/lib.rs", TESTED),
            ]:
                full = os.path.join(root, path)
                os.makedirs(os.path.dirname(full), exist_ok=True)
                with open(full, "w", encoding="utf-8") as f:
                    f.write(text)
            sizes = crate_sizes(root)
            lib_lines = len(LIB.splitlines())
            self.assertEqual(sizes, {"a": (lib_lines + 5, 5), "b": (5, 1)})
            last = table(sizes).splitlines()[-1].split()
            self.assertEqual(last, ["total", str(lib_lines + 10), "6"])


def write_tree(root, files):
    for path, text in files:
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as f:
            f.write(text)


class UnnamedElsewhere(unittest.TestCase):
    def test_only_names_no_other_crate_or_top_level_file_uses_are_listed(self):
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, [
                # `Thing`, `inner`, `new` and `shown`; `hidden` is
                # restricted and the test module's `helper` is test code.
                ("crates/a/src/lib.rs", LIB),
                ("crates/a/src/more.rs",
                 "pub fn used_by_b() {}\npub fn used_by_tests() {}\n"
                 "pub fn used_by_perfbench() {}\npub struct $name;\n"
                 "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n"),
                ("crates/b/src/lib.rs", "pub fn b_only() { a::used_by_b(); }\n"),
                ("tests/it.rs", "fn t() { a::used_by_tests(); a::Thing::new(); }\n"),
                ("perfbench/src/main.rs", "fn main() { a::used_by_perfbench(); }\n"),
                # Outside the searched directories: does not count.
                ("tools/x.rs", "fn x() { a::inner::f(); }\n"),
            ])
            unnamed = unnamed_elsewhere(root)
            self.assertEqual(unnamed, {"a": ["inner", "shown"], "b": ["b_only"]})
            rows = unnamed_table(unnamed).splitlines()
            self.assertEqual(rows[1].split(), ["a", "2", "inner", "shown"])
            self.assertEqual(rows[-1].split(), ["total", "3"])

    def test_the_crates_own_binaries_and_tests_are_outside_users(self):
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, [
                ("crates/a/src/lib.rs",
                 "pub fn by_bin() {}\npub fn by_main() {}\n"
                 "pub fn by_tests() {}\npub fn by_lib() {}\n"
                 "pub fn unused() {}\nfn f() { by_lib(); }\n"),
                # A binary's own `pub` items have no outside user.
                ("crates/a/src/bin/tool.rs",
                 "pub fn in_bin() {}\nfn main() { a::by_bin(); in_bin(); }\n"),
                ("crates/a/src/main.rs", "fn main() { a::by_main(); }\n"),
                ("crates/a/tests/own.rs", "fn t() { a::by_tests(); }\n"),
                # A binary-only crate: no other crate can name its items,
                # whatever its own tests say.
                ("crates/b/src/main.rs", "pub fn run() {}\nfn main() { run(); }\n"),
                ("crates/b/tests/cli.rs", "fn t() { let run = 1; }\n"),
            ])
            self.assertEqual(unnamed_elsewhere(root),
                             {"a": ["by_lib", "in_bin", "unused"], "b": ["run"]})


class Gate(unittest.TestCase):
    def test_listed_names_must_match_the_allowlist_exactly(self):
        unnamed = {"a": ["Kept", "Leaked"], "b": []}
        allowed = {"a": {"Kept": "returned by a::f"}, "b": {"Gone": "x"}}
        problems = gate(unnamed, allowed)
        self.assertEqual(len(problems), 2)
        self.assertIn("a: `Leaked` is pub but no outside user", problems[0])
        self.assertIn("b: allowlisted `Gone` is no longer listed", problems[1])
        self.assertEqual(gate({"a": ["Kept"]}, {"a": {"Kept": "y"}}), [])


if __name__ == "__main__":
    unittest.main()
