//! `mrts-perfbench` — one pass of one benchmark workload.
//!
//! ```text
//! mrts-perfbench --workload <solo-h264|multitask-slo|fleet-churn>
//!                --seed N --seconds S --pass <plain|traced>
//! ```
//!
//! The plain pass measures the end-to-end metrics with nothing but one
//! clock read per block dispatch. The traced pass reruns the same
//! workload and seed with the layer wrappers of [`probe`] and reports the
//! per-layer metrics. Both check their outputs and print one JSON line;
//! `run.py` compares the two passes' digests and assembles the result.
//! The pass runs on one thread.

mod fleet;
mod inputs;
mod multitask;
mod probe;
mod solo;
mod util;

use std::collections::BTreeMap;
use std::time::Instant;

use mrts_arch::{ArchParams, Cycles, Machine, Resources};
use mrts_core::Mrts;
use mrts_sim::{ExecClass, RunStats, Simulator};
use mrts_workload::{TraceBuilder, VideoModel, WorkloadModel};

use crate::probe::CountingSink;
use crate::util::{median, ns_since, Report};

/// Which pass this process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    Plain,
    Traced,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub pass: Pass,
}

/// Each workload builds its inputs at least this many times, and for at
/// least [`SETUP_MIN_S`]; `setup_s` is the median. A build can take under
/// 5 ms, and a handful of builds that short can all land in one burst of
/// interference from other work on the machine.
const SETUP_REPS: usize = 11;
const SETUP_MIN_S: f64 = 0.5;

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_owned();
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} must be within (0, 600]"));
    }
    let pass = match get("--pass")? {
        "plain" => Pass::Plain,
        "traced" => Pass::Traced,
        other => return Err(format!("--pass {other}: expected plain or traced")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        pass,
    })
}

/// Builds a workload's inputs repeatedly (see [`SETUP_REPS`]), checks every build
/// equals the first, reports `setup_s` (median total) and the median of
/// each named phase, and returns the last build.
///
/// Set-up lasts well under a second, too short for the pass-wide speed
/// reference to describe it, so each build is scaled by its own reference
/// samples ([`SpeedRef::after_rep`]).
pub fn setup_reps<T>(
    report: &mut Report,
    phases: [&str; 3],
    mut build: impl FnMut() -> (T, [u64; 3]),
    same: impl Fn(&T, &T) -> bool,
) -> T {
    let mut totals = Vec::new();
    let mut phase_ms: [Vec<f64>; 3] = Default::default();
    let mut first: Option<T> = None;
    let mut last = None;
    let _ = report.speed.sample();
    let start = Instant::now();
    while totals.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_S {
        let t = Instant::now();
        let (value, ns) = build();
        let elapsed = ns_since(t);
        let speed = report.speed.after_rep();
        totals.push(elapsed as f64 * speed / 1e9);
        for (acc, v) in phase_ms.iter_mut().zip(ns) {
            acc.push(v as f64 * speed / 1e6);
        }
        match &first {
            None => first = Some(value),
            Some(f) => {
                report.check(same(f, &value), "input generation repeats exactly");
                last = Some(value);
            }
        }
    }
    report.metric_at_reference("setup_s", median(&totals), "s");
    for (name, values) in phases.iter().zip(&phase_ms) {
        if !name.is_empty() {
            report.metric_at_reference(name, median(values), "ms");
        }
    }
    last.or(first).expect("SETUP_REPS > 0")
}

/// `sim.exec_share.*`: execution-class shares over all kernels of `runs`.
pub fn exec_shares(runs: &[RunStats], report: &mut Report) {
    let mut counts: BTreeMap<ExecClass, u64> = BTreeMap::new();
    for run in runs {
        for (class, n) in run.class_histogram() {
            *counts.entry(class).or_default() += n;
        }
    }
    let total = counts.values().sum::<u64>().max(1) as f64;
    for (class, name) in [
        (ExecClass::RiscMode, "sim.exec_share.risc"),
        (ExecClass::IntermediateIse, "sim.exec_share.intermediate"),
        (ExecClass::FullIse, "sim.exec_share.full"),
        (ExecClass::MonoCg, "sim.exec_share.monocg"),
    ] {
        let n = counts.get(&class).copied().unwrap_or(0);
        report.metric(name, n as f64 / total, "ratio");
    }
}

/// `arch.*`: loads from the spine, faults and recovery from `RunStats`.
pub fn arch_metrics(runs: &[RunStats], sink: &CountingSink, report: &mut Report) {
    let sum = |f: fn(&RunStats) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    report.metric("arch.loads_issued", sink.loads_issued as f64, "count");
    report.metric(
        "arch.load_mcycles",
        sink.load_cycles as f64 / 1e6,
        "Mcycles",
    );
    report.metric("arch.load_faults", sum(|r| r.failed_loads), "count");
    report.metric("arch.load_retries", sum(|r| r.retried_loads), "count");
    report.metric(
        "arch.containers_lost",
        sum(|r| r.blacklisted_containers),
        "count",
    );
    report.metric(
        "arch.recovery_mcycles",
        sum(|r| r.recovery_cycles.get()) / 1e6,
        "Mcycles",
    );
}

/// The paper fingerprint: the 48-block H.264 run on 2 CG + 2 PRC under
/// default mRTS must spend exactly 126 893 426 busy cycles.
fn paper_fingerprint(report: &mut Report) {
    let model = mrts_ingest::model("h264").expect("builtin h264 manifest");
    let catalog = model
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("h264 catalogue");
    let trace = TraceBuilder::new(&model)
        .video(VideoModel::paper_default(1))
        .build();
    let machine = Machine::new(ArchParams::default(), Resources::new(2, 2)).expect("valid machine");
    let stats = Simulator::run(&catalog, machine, &trace, &mut Mrts::new());
    report.check(
        trace.len() == 48 && stats.total_busy() == Cycles::new(126_893_426),
        "paper H.264 fingerprint Cycles(126893426)",
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    paper_fingerprint(&mut report);
    match args.workload.as_str() {
        "solo-h264" => solo::run(&args, &mut report),
        "multitask-slo" => multitask::run(&args, &mut report),
        "fleet-churn" => fleet::run(&args, &mut report),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    }
    report.metric("peak_rss_mb", util::peak_rss_mb(), "MiB");
    let pass = match args.pass {
        Pass::Plain => "plain",
        Pass::Traced => "traced",
    };
    println!("{}", report.to_json(&args.workload, pass));
}
