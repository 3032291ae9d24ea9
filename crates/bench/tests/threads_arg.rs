//! A sweep binary given a bad worker count prints a `threads:`-qualified
//! error and exits with status 1 — never a panic (exit 101) — and starts
//! no sweep. Every input here is rejected before any worker is spawned.

use std::process::Command;

#[test]
fn bad_thread_counts_exit_cleanly() {
    let cases: [(&[&str], Option<&str>); 5] = [
        (&["--threads", "0"], None),
        (&["--threads", "abc"], None),
        (&["--threads"], None),
        (&["--threads", "99999999999999999999"], None),
        (&[], Some("x")),
    ];
    for (args, env) in cases {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig8_comparison"));
        cmd.args(args).env_remove("MRTS_BENCH_THREADS");
        if let Some(v) = env {
            cmd.env("MRTS_BENCH_THREADS", v);
        }
        let out = cmd.output().expect("fig8_comparison starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} {env:?}: {stderr}");
        assert!(
            stderr.starts_with("error: threads: "),
            "{args:?} {env:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} {env:?}: sweep output");
    }
}
