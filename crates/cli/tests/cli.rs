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
    for args in [
        vec![],
        vec!["help"],
        vec!["--help"],
        vec!["-h"],
        vec!["simulate", "--help"],
        vec!["simulate", "-h"],
        vec!["simulate", "--cg", "1", "--help"],
    ] {
        let out = run(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
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
    // The three ISEs Fig. 1 plots, as its committed output names them.
    let fig1 = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fig1_pif.txt"),
    )
    .expect("results/fig1_pif.txt is readable");
    let labels: Vec<&str> = fig1
        .lines()
        .filter(|l| l.starts_with("ISE-"))
        .filter_map(|l| l.split_once(": ").map(|(_, label)| label))
        .collect();
    assert_eq!(labels.len(), 3, "{fig1}");
    let listed: Vec<&str> = text
        .lines()
        .skip(1)
        .take(3)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, labels, "{text}");
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
        (
            vec!["simulate", "--app", "no/such.json"],
            "cannot read manifest 'no/such.json'",
        ),
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

/// Command lines that still pass a retired flag (`--prefetch`,
/// `--mpu-alpha`) fail with the flag-qualified unknown-flag error, never a
/// panic.
#[test]
fn retired_prefetch_flag_is_an_unknown_flag() {
    for (command, flag, value) in [
        ("simulate", "--prefetch", "on"),
        ("simulate", "--mpu-alpha", "0.3"),
        ("multitask", "--mpu-alpha", "0.3"),
    ] {
        let out = run(&[command, flag, value]);
        assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
        let err = stderr(&out);
        assert!(
            err.starts_with(&format!("error: unknown flag {flag} ")),
            "{err}"
        );
    }
}

/// The multi-tenant modes no figure needed (schedulers `rr` and `prio`,
/// arbiter `prop`) are gone: passing one fails with exit 1 and an error
/// naming the flag, in both subcommands that take them. So does any
/// other unknown `--admission`, `--placement` or `--degrade` value.
#[test]
fn retired_and_unknown_mode_values_name_their_flag() {
    for command in ["multitask", "fleet"] {
        for (flag, value, message) in [
            ("--sched", "rr", "unknown scheduler 'rr' (wfq|edf|llf)"),
            ("--sched", "prio", "unknown scheduler 'prio' (wfq|edf|llf)"),
            (
                "--arbiter",
                "prop",
                "unknown arbiter 'prop' (static|dynamic)",
            ),
            (
                "--admission",
                "maybe",
                "unknown admission policy 'maybe' (off|reject|queue)",
            ),
        ] {
            let out = run(&[command, flag, value]);
            assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
            assert_eq!(stderr(&out), format!("error: {flag}: {message}\n"));
            assert!(stdout(&out).is_empty(), "{}", stdout(&out));
        }
    }
    for (args, error) in [
        (
            ["fleet", "--placement", "random"],
            "error: --placement: unknown placement 'random' (rr|least-loaded|crit)\n",
        ),
        (
            ["multitask", "--degrade", "maybe"],
            "error: --degrade: unknown value 'maybe' (on|off)\n",
        ),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
        assert_eq!(stderr(&out), error);
    }
}

/// A reader that closes stdout early (`mrts-cli trace | head -c 100`) ends
/// the run quietly: no panic, no exit 101. The h264 trace's JSON is larger
/// than a pipe buffer, so the CLI is still writing when the pipe closes.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    use std::io::Read;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_mrts-cli"))
        .args(["trace", "--app", "h264"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut head = [0u8; 100];
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_exact(&mut head)
        .expect("the trace starts");
    // The read end is dropped here, closing the pipe.
    let out = child.wait_with_output().expect("binary exits");
    assert_ne!(out.status.code(), Some(101), "{}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
}

#[test]
fn cg_slot_overflow_is_a_field_qualified_error() {
    // 21 846 EDPEs × 3 contexts = 65 538 context slots, one past u16.
    for args in [
        vec!["simulate", "--app", "toy", "--cg", "21846"],
        vec!["multitask", "--apps", "toy", "--cg", "21846"],
        vec!["fleet", "--sessions", "5", "--cg", "21846"],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.starts_with("error:"), "{args:?}: {err}");
        assert!(err.contains("cg: 21846 EDPEs"), "{args:?}: {err}");
    }
}

/// Every numeric flag of every subcommand at 0, 1, its type's maximum and
/// one past it: each run exits 0, or exits 1 with an `error:` message.
/// Nothing a user can type panics (exit 101) or hangs.
#[test]
fn numeric_flags_at_their_edges_exit_cleanly() {
    const U16: [&str; 2] = ["65535", "65536"];
    const U32: [&str; 2] = ["4294967295", "4294967296"];
    const U64: [&str; 2] = ["18446744073709551615", "18446744073709551616"];
    // `usize` is 64 bits on every supported target.
    const USIZE: [&str; 2] = U64;
    const F64: [&str; 2] = ["1.7976931348623157e308", "1e309"];
    let simulate: &[&str] = &["simulate", "--app", "toy"];
    let multitask: &[&str] = &["multitask", "--apps", "toy"];
    let fleet: &[&str] = &["fleet", "--apps", "toy", "--sessions", "5"];
    let table: &[(&[&str], &str, [&str; 2])] = &[
        (&["catalog", "--app", "toy"], "seed", U64),
        (&["trace", "--app", "toy"], "seed", U64),
        (&["sweep", "--app", "toy"], "seed", U64),
        (&["pif"], "seed", U64),
        (&["pif"], "max-exec", U64),
        (simulate, "seed", U64),
        (simulate, "cg", U16),
        (simulate, "prc", U16),
        (simulate, "fault-rate", F64),
        (simulate, "fault-seed", U64),
        (simulate, "retry-budget", U32),
        (simulate, "threads", USIZE),
        (multitask, "seed", U64),
        (multitask, "cg", U16),
        (multitask, "prc", U16),
        (multitask, "weights", U64),
        (multitask, "fault-rate", F64),
        (multitask, "fault-seed", U64),
        (multitask, "threads", USIZE),
        (fleet, "seed", U64),
        (fleet, "sessions", USIZE),
        (fleet, "mean-gap", U64),
        (fleet, "variants", USIZE),
        (fleet, "max-blocks", USIZE),
        (fleet, "fabrics", USIZE),
        (fleet, "ways", USIZE),
        (fleet, "queue-cap", USIZE),
        (fleet, "cg", U16),
        (fleet, "prc", U16),
        (fleet, "weights", U64),
        (fleet, "window", U64),
        (fleet, "repart-min", U64),
        (fleet, "threads", USIZE),
    ];
    for (base, flag, [max, past]) in table {
        for value in ["0", "1", max, past] {
            let mut args = base.to_vec();
            let name = format!("--{flag}");
            args.extend([name.as_str(), value]);
            let out = run(&args);
            match out.status.code() {
                Some(0) => {}
                Some(1) => assert!(
                    stderr(&out).starts_with("error:"),
                    "{args:?}: {}",
                    stderr(&out)
                ),
                code => panic!("{args:?} exited with {code:?}: {}", stderr(&out)),
            }
        }
    }
}
