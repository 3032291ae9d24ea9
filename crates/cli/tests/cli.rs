//! End-to-end tests of the `mrts-cli` binary: every subcommand is invoked
//! as a real process and its output / exit status checked.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mrts-cli"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_lists_all_commands() {
    for args in [vec![], vec!["help"]] {
        let out = run(&args);
        assert!(out.status.success());
        let text = stdout(&out);
        for cmd in ["catalog", "simulate", "sweep", "trace", "pif"] {
            assert!(text.contains(cmd), "help must mention '{cmd}'");
        }
    }
}

#[test]
fn catalog_reports_the_encoder_structure() {
    let out = run(&["catalog"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("11 kernels"));
    assert!(text.contains("deblock"));
    assert!(text.contains("one-ISE-per-kernel combinations"));
}

#[test]
fn simulate_prints_speedup_for_each_policy() {
    for policy in ["mrts", "rispp", "offline"] {
        let out = run(&[
            "simulate", "--app", "toy", "--cg", "1", "--prc", "1", "--policy", policy,
        ]);
        assert!(out.status.success(), "{policy}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("speedup"), "{policy}: {text}");
        assert!(text.contains("Mcycles"));
    }
}

#[test]
fn sweep_csv_has_twenty_rows() {
    let out = run(&["sweep", "--app", "toy", "--format", "csv"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("cg,prc,mcycles,speedup_vs_risc"));
    assert_eq!(lines.count(), 20);
}

#[test]
fn trace_round_trips_to_a_file() {
    let dir = std::env::temp_dir().join("mrts_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.json");
    let out = run(&[
        "trace",
        "--app",
        "fft",
        "--seed",
        "5",
        "--out",
        path.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = std::fs::read_to_string(&path).expect("file written");
    let trace: mrts_workload::Trace = serde_json::from_str(&json).expect("valid JSON trace");
    assert_eq!(trace.len(), 16);
    let _ = std::fs::remove_file(path);
}

#[test]
fn pif_prints_the_case_study_table() {
    let out = run(&["pif", "--kernel", "deblock", "--max-exec", "2000"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("kernel 'deblock'"));
    assert!(text.contains("FG"));
    assert!(text.contains("CG"));
    assert!(text.contains("MG"));
}

#[test]
fn simulate_event_logs_are_deterministic_across_runs_and_threads() {
    let dir = std::env::temp_dir().join("mrts_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("events_a.jsonl");
    let b = dir.join("events_b.jsonl");
    let base = ["simulate", "--app", "toy", "--cg", "1", "--prc", "1"];
    let mut run_a: Vec<&str> = base.to_vec();
    run_a.extend(["--events-out", a.to_str().expect("utf8 path")]);
    let mut run_b: Vec<&str> = base.to_vec();
    run_b.extend([
        "--events-out",
        b.to_str().expect("utf8 path"),
        "--threads",
        "4",
    ]);
    let out_a = run(&run_a);
    let out_b = run(&run_b);
    assert!(out_a.status.success(), "{}", stderr(&out_a));
    assert!(out_b.status.success(), "{}", stderr(&out_b));
    assert!(stdout(&out_b).contains("byte-identical"));
    let log_a = std::fs::read_to_string(&a).expect("log a written");
    let log_b = std::fs::read_to_string(&b).expect("log b written");
    assert!(!log_a.is_empty());
    assert_eq!(log_a, log_b, "event logs must not depend on thread count");
    for line in log_a.lines() {
        assert!(
            line.starts_with(r#"{"tenant":0,"event":{"#) && line.ends_with("}}"),
            "malformed JSONL line: {line}"
        );
    }
    let _ = std::fs::remove_file(a);
    let _ = std::fs::remove_file(b);
}

#[test]
fn multitask_event_logs_are_deterministic() {
    let dir = std::env::temp_dir().join("mrts_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("mt_events_a.jsonl");
    let b = dir.join("mt_events_b.jsonl");
    for path in [&a, &b] {
        let out = run(&[
            "multitask",
            "--apps",
            "toy,toy",
            "--events-out",
            path.to_str().expect("utf8 path"),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
    }
    let log_a = std::fs::read_to_string(&a).expect("log a written");
    let log_b = std::fs::read_to_string(&b).expect("log b written");
    assert_eq!(log_a, log_b, "multitask event logs must be reproducible");
    assert!(
        log_a.contains("TenantDispatch"),
        "runner events must appear in the log"
    );
    let _ = std::fs::remove_file(a);
    let _ = std::fs::remove_file(b);
}

#[test]
fn errors_exit_nonzero_with_message() {
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["simulate", "--policy", "bogus"], "unknown policy"),
        (vec!["simulate", "--app", "bogus"], "unknown app"),
        (vec!["frobnicate"], "unknown command"),
        (vec!["simulate", "--cg"], "missing its value"),
        (vec!["pif", "--kernel", "nope"], "unknown kernel"),
        (vec!["sweep", "--format", "xml"], "unknown format"),
        (vec!["catalog", "--typo", "1"], "unknown flag"),
        (
            vec!["fleet", "--window", "0", "--sessions", "5"],
            "window must be >= 1",
        ),
    ];
    for (args, needle) in cases {
        let out = run(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(
            stderr(&out).contains(needle),
            "{args:?}: stderr was {}",
            stderr(&out)
        );
    }
}
