//! The figure runner given bad input — a bad worker count, an unknown
//! flag, an unknown figure or none at all — prints a field-qualified
//! `error: ` line and exits with status 1: never a panic (exit 101), never
//! a silently ignored argument, and no figure output. Every input here is
//! rejected before any run starts.

use std::process::Command;

#[test]
fn bad_input_exits_cleanly() {
    let cases: [(&[&str], &str); 8] = [
        (&["fig8_comparison", "--threads", "0"], "threads"),
        (&["fig8_comparison", "--threads", "abc"], "threads"),
        (&["fig8_comparison", "--threads"], "threads"),
        (
            &["fig8_comparison", "--threads", "99999999999999999999"],
            "threads",
        ),
        (&["fig1_pif", "--bogus", "x"], "flag"),
        (&["fig2_exec_behavior", "--threads", "0"], "threads"),
        (&["fig_nonexistent"], "figure"),
        (&[], "figure"),
    ];
    for (args, field) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_figure"))
            .args(args)
            .output()
            .expect("figure starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {field}: ")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: figure output");
    }
}
