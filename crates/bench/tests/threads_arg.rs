//! A sweep binary given a bad worker count prints a `threads:`-qualified
//! error and exits with status 1 — never a panic (exit 101) — and starts
//! no sweep. Every input here is rejected before any worker is spawned.

use std::process::Command;

#[test]
fn bad_thread_counts_exit_cleanly() {
    let cases: [&[&str]; 4] = [
        &["--threads", "0"],
        &["--threads", "abc"],
        &["--threads"],
        &["--threads", "99999999999999999999"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_fig8_comparison"))
            .args(args)
            .output()
            .expect("fig8_comparison starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: threads: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: sweep output");
    }
}
