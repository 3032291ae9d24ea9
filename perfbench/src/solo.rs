//! `solo-h264`: default mRTS on the H.264 manifest, one tenant, on a
//! 4 CG + 3 PRC machine, over a long seeded CIF video. Batch, closed loop:
//! the benchmark calls `Simulator::step_activation` block after block.

use std::time::Instant;

use mrts_arch::{ArchParams, Machine, Resources};
use mrts_core::Mrts;
use mrts_ise::IseCatalog;
use mrts_sim::{RunStats, RuntimePolicy, Simulator, VecSink};
use mrts_workload::Trace;

use crate::inputs::{build_app, seeded_video, AppInputs};
use crate::probe::{CountingSink, ShadowSelector, TimedPolicy};
use crate::util::{digest, median, ns, ns_since, quantile, PositionSamples, Report};
use crate::{setup_reps, Args, Pass};

/// Frames of the seeded video (3 block activations each).
const FRAMES: u32 = 600;
/// Seeded scene count range.
const SCENES: (u64, u64) = (24, 40);
/// The largest Fig. 8 machine, where selection runs several commit rounds.
const COMBO: Resources = Resources::new(4, 3);

fn machine() -> Machine {
    Machine::new(ArchParams::default(), COMBO).expect("default parameters are valid")
}

fn fresh_stats(policy: &dyn RuntimePolicy) -> RunStats {
    RunStats {
        policy: policy.name(),
        ..RunStats::default()
    }
}

/// Per-repetition layer times of a traced run.
#[derive(Default)]
struct Layers {
    plan_p50: Vec<f64>,
    plan_p99: Vec<f64>,
    plan_ns: u64,
    plan_calls: u64,
    exec_ns: Vec<f64>,
    exec_calls: u64,
    observe_calls: u64,
    observe_ns: Vec<f64>,
    self_p50: Vec<f64>,
    self_total: Vec<f64>,
    step_ns: u64,
    select_p50: Vec<f64>,
    select_calls: u64,
    evals: u64,
    profit_evals_timed: u64,
    profit_ns: u64,
    triggers: u64,
    repeats: u64,
}

pub fn run(args: &Args, report: &mut Report) {
    let app = setup_reps(
        report,
        ["ingest.lower_ms", "ise.catalog_ms", "workload.trace_ms"],
        || {
            let app = build_app("h264", seeded_video(args.seed, FRAMES, SCENES));
            let phases = [app.lower_ns, app.catalog_ns, app.trace_ns];
            (app, phases)
        },
        |a: &AppInputs, b| a.trace == b.trace,
    );

    let catalog = &app.catalog;
    let trace = &app.trace;
    let blocks = trace.len();
    let start = Instant::now();
    let mut reps = 0u64;
    let mut positions = PositionSamples::new(blocks);
    let mut rep_s = Vec::new();
    let mut layers = Layers::default();
    let mut reference: Option<(u64, RunStats)> = None;
    let mut buf = vec![0u64; blocks];
    while reps < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let (stats, rep_ns) = match args.pass {
            Pass::Plain => plain_rep(catalog, trace, &mut buf),
            Pass::Traced => traced_rep(catalog, trace, &mut buf, &mut layers, report),
        };
        rep_s.push(rep_ns as f64 * report.speed.after_rep() / 1e9);
        positions.push(&buf);
        match &reference {
            None => reference = Some((digest(&format!("{stats:?}")), stats)),
            Some((_, r)) => report.check(stats == *r, "solo-h264 RunStats repeat exactly"),
        }
        reps += 1;
    }
    let (d, stats) = reference.expect("at least one repetition");
    report.digest = d;
    let secs = median(&rep_s);
    report.metric_at_reference("blocks_per_s", blocks as f64 / secs, "blocks/s");
    report.metric("block_p50_us", positions.quantile(0.50) / 1e3, "us");
    report.metric("block_p99_us", positions.quantile(0.99) / 1e3, "us");
    report.metric(
        "bench.block_samples",
        (reps * blocks as u64) as f64,
        "count",
    );
    report.metric_at_reference("sessions_per_s", 1.0 / secs, "sessions/s");
    report.metric(
        "sim_mcycles",
        stats.total_execution_time().as_mcycles(),
        "Mcycles",
    );
    report.metric(
        "session_p99_mcycles",
        stats.total_execution_time().as_mcycles(),
        "Mcycles",
    );
    report.metric(
        "failed_ratio",
        stats.rejected_loads as f64 / blocks as f64,
        "ratio",
    );

    if args.pass == Pass::Traced {
        traced_metrics(catalog, trace, &stats, &layers, reps, report);
    }
}

/// One untraced repetition: one clock read per block.
fn plain_rep(catalog: &IseCatalog, trace: &Trace, buf: &mut [u64]) -> (RunStats, u64) {
    let mut policy = Mrts::new();
    let mut sim = Simulator::new(catalog, machine());
    let mut stats = fresh_stats(&policy);
    let start = Instant::now();
    let mut prev = start;
    for (slot, act) in buf.iter_mut().zip(trace.activations()) {
        sim.step_activation(act, &mut policy, &mut stats);
        let now = Instant::now();
        *slot = ns(now - prev);
        prev = now;
    }
    sim.finish_events();
    (stats, ns_since(start))
}

/// One traced repetition: mRTS behind [`TimedPolicy`] with the shadow
/// selector armed. Shadow time is taken out of every step and of the
/// repetition total.
fn traced_rep(
    catalog: &IseCatalog,
    trace: &Trace,
    buf: &mut [u64],
    layers: &mut Layers,
    report: &mut Report,
) -> (RunStats, u64) {
    let mut policy = TimedPolicy::new(Mrts::new(), Some(ShadowSelector::new()));
    let mut sim = Simulator::new(catalog, machine());
    let mut stats = fresh_stats(&policy);
    let mut self_ns = Vec::with_capacity(buf.len());
    let mut shadow_ns = 0u64;
    let mut violations = 0u64;
    let start = Instant::now();
    for (slot, act) in buf.iter_mut().zip(trace.activations()) {
        policy.times.step_callback_ns = 0;
        policy.times.step_shadow_ns = 0;
        let t = Instant::now();
        sim.step_activation(act, &mut policy, &mut stats);
        let outer = ns_since(t);
        let step = outer.saturating_sub(policy.times.step_shadow_ns);
        shadow_ns += policy.times.step_shadow_ns;
        if policy.times.step_callback_ns + policy.times.step_shadow_ns > outer {
            violations += 1;
        }
        *slot = step;
        self_ns.push(step.saturating_sub(policy.times.step_callback_ns));
    }
    sim.finish_events();
    let rep_ns = ns_since(start).saturating_sub(shadow_ns);
    let t = &mut policy.times;
    let shadow = policy.shadow.as_mut().expect("shadow armed");
    let step_total: u64 = buf.iter().sum();
    let self_total: u64 = self_ns.iter().sum();
    let plan_total: u64 = t.plan_ns.iter().sum();
    // Sanity asserts, not output checks: nested spans of one monotonic
    // clock hold these by construction.
    assert_eq!(
        violations, 0,
        "policy callbacks outside their step_activation"
    );
    assert!(
        self_total + plan_total + t.exec_ns + t.observe_ns <= rep_ns,
        "layer self-times exceed the traced total"
    );
    report.check(
        shadow.eval_mismatches == 0,
        "counted profit evaluations match the selector's",
    );
    report.check(
        shadow.triggers == t.plan_ns.len() as u64,
        "the shadow selector saw every plan_block call",
    );
    layers.plan_ns += plan_total;
    layers.plan_calls = t.plan_ns.len() as u64;
    layers.observe_calls = t.observe_calls;
    layers.step_ns += step_total;
    layers.plan_p50.push(quantile(&mut t.plan_ns, 0.50));
    layers.plan_p99.push(quantile(&mut t.plan_ns, 0.99));
    layers.exec_ns.push(t.exec_ns as f64);
    layers.exec_calls = t.exec_calls;
    layers.observe_ns.push(t.observe_ns as f64);
    layers.self_total.push(self_total as f64);
    layers.self_p50.push(quantile(&mut self_ns, 0.50));
    layers.select_calls = shadow.select_ns.len() as u64;
    layers
        .select_p50
        .push(quantile(&mut shadow.select_ns, 0.50));
    layers.evals = shadow.evals;
    layers.profit_evals_timed += shadow.profit_evals_timed;
    layers.profit_ns += shadow.profit_ns;
    layers.triggers = shadow.triggers;
    layers.repeats = shadow.repeats;
    (stats, rep_ns)
}

fn traced_metrics(
    catalog: &IseCatalog,
    trace: &Trace,
    stats: &RunStats,
    layers: &Layers,
    reps: u64,
    report: &mut Report,
) {
    let blocks = trace.len() as f64;
    report.metric("core.plan_block.calls", layers.plan_calls as f64, "count");
    report.metric("core.plan_block.ns_p50", median(&layers.plan_p50), "ns");
    report.metric("core.plan_block.ns_p99", median(&layers.plan_p99), "ns");
    report.metric(
        "core.plan_block.share",
        layers.plan_ns as f64 / layers.step_ns as f64,
        "ratio",
    );
    report.metric(
        "core.plan_execution.calls",
        layers.exec_calls as f64,
        "count",
    );
    report.metric(
        "core.plan_execution.ns_total",
        median(&layers.exec_ns),
        "ns",
    );
    report.metric("core.observe.ns_total", median(&layers.observe_ns), "ns");
    report.metric("core.selector.calls", layers.select_calls as f64, "count");
    report.metric("core.selector.ns_p50", median(&layers.select_p50), "ns");
    report.metric(
        "core.selector.evals_per_call",
        layers.evals as f64 / layers.select_calls.max(1) as f64,
        "evals",
    );
    report.metric("core.profit.evals", layers.evals as f64, "count");
    report.metric(
        "core.profit.ns_mean",
        layers.profit_ns as f64 / layers.profit_evals_timed.max(1) as f64,
        "ns",
    );
    report.metric(
        "core.trigger_repeat_ratio",
        layers.repeats as f64 / layers.triggers.max(1) as f64,
        "ratio",
    );
    report.metric("core.triggers", layers.triggers as f64, "count");
    report.metric(
        "core.overhead_mcycles",
        stats.total_overhead().as_mcycles(),
        "Mcycles",
    );
    report.metric("sim.step.calls", blocks, "count");
    report.metric("sim.step.self_ns_p50", median(&layers.self_p50), "ns");
    report.metric("sim.step.self_ns_total", median(&layers.self_total), "ns");
    report.metric("bench.reps", reps as f64, "count");
    crate::exec_shares(std::slice::from_ref(stats), report);

    // Spine census: one untimed repetition with the spine recorded.
    // Recording is observational, so its stats must equal the timed ones.
    let spine = VecSink::new();
    let mut policy = Mrts::new();
    let mut sim = Simulator::new(catalog, machine());
    sim.attach_events(0, Box::new(spine.clone()));
    let mut census = fresh_stats(&policy);
    for act in trace.activations() {
        sim.step_activation(act, &mut policy, &mut census);
    }
    sim.finish_events();
    report.check(
        census == *stats,
        "recording the spine leaves solo-h264 RunStats unchanged",
    );
    let counts = CountingSink::of(&spine.take());
    report.check(
        (layers.plan_calls, layers.exec_calls, layers.observe_calls)
            == (counts.block_starts, counts.epochs, counts.block_ends),
        "TimedPolicy call counts match the spine's BlockStart, EpochBegin and BlockEnd",
    );
    crate::arch_metrics(std::slice::from_ref(stats), &counts, report);
}
