//! `multitask-slo`: three tenants (h264, cv, cryptomix) under EDF on one
//! tight 2 CG + 2 PRC fabric. Each tenant has per-block deadlines (hard for
//! h264, soft for the others) that load the core 1.1x past its calibrated
//! saturation (the `fig_overload` regime), with seeded fault injection and
//! the event spine recorded and encoded to JSONL. The benchmark drives
//! `MultitaskRunner` itself: `new`, then `step` until idle, settling each
//! dispatch with `finish_session`, `ladder_maybe` and `force_admit_next`.

use std::time::Instant;

use mrts_arch::{ArchParams, Cycles, FaultModel, Resources};
use mrts_multitask::{
    run_multitask_with_events, ArbiterPolicy, Criticality, MultitaskConfig, MultitaskRunner,
    SchedulerKind, Slo, StepOutcome, TenantSpec,
};
use mrts_sim::{events_to_jsonl, MultitaskStats, SimEvent, VecSink};

use crate::inputs::{build_app, seeded_video, AppInputs};
use crate::probe::{run_count, CountingSink};
use crate::util::{
    cycle_time, digest, median, ns, ns_since, quantile, PositionSamples, Report, SplitMix,
};
use crate::{setup_reps, Args, Pass};

const APPS: [&str; 3] = ["h264", "cv", "cryptomix"];
/// Independently seeded three-tenant instances, run in turn. A mix of
/// instances keeps one seed's dynamics (faults, ladder moves) from setting
/// the whole workload's throughput.
const INSTANCES: usize = 4;
/// Frames of each tenant's seeded video.
const FRAMES: u32 = 96;
const SCENES: (u64, u64) = (9, 15);
const COMBO: Resources = Resources::new(2, 2);
/// Overload factor of the h264 tenant's deadline, in percent.
const OVERLOAD_PCT: u64 = 110;

/// The tenants' inputs plus their calibrated SLOs and fault seeds.
struct Inputs {
    apps: Vec<AppInputs>,
    slos: Vec<Slo>,
    fault_seeds: [u64; 3],
}

fn config(degrade: bool) -> MultitaskConfig {
    MultitaskConfig {
        policy: "mrts".into(),
        arbiter: ArbiterPolicy::Dynamic,
        scheduler: SchedulerKind::EarliestDeadline,
        degrade,
        repartition_min_demand: Cycles::ZERO,
        workers: 1,
        ..MultitaskConfig::default()
    }
}

fn fault_model(seed: u64) -> FaultModel {
    FaultModel::with_rates(0.03, 1e-5, 0.0003, seed)
}

fn specs(inputs: &Inputs, with_slo: bool) -> Vec<TenantSpec<'_>> {
    inputs
        .apps
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let spec = TenantSpec::new(a.name.clone(), &a.catalog, &a.trace)
                .with_fault_model(fault_model(inputs.fault_seeds[i]));
            if with_slo {
                spec.with_slo(inputs.slos[i])
            } else {
                spec
            }
        })
        .collect()
}

/// Builds the [`INSTANCES`] instances and sums their phase times.
fn build(seed: u64) -> (Vec<Inputs>, [u64; 3]) {
    let mut rng = SplitMix::new(seed ^ 0x6d75_6c74);
    let mut phases = [0u64; 3];
    let instances = (0..INSTANCES)
        .map(|_| {
            let (inputs, ns) = build_instance(rng.next_u64());
            for (acc, v) in phases.iter_mut().zip(ns) {
                *acc += v;
            }
            inputs
        })
        .collect();
    (instances, phases)
}

fn build_instance(seed: u64) -> (Inputs, [u64; 3]) {
    let mut rng = SplitMix::new(seed);
    let apps: Vec<AppInputs> = APPS
        .iter()
        .map(|app| build_app(app, seeded_video(rng.next_u64(), FRAMES, SCENES)))
        .collect();
    let fault_seeds = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
    let mut inputs = Inputs {
        apps,
        slos: Vec::new(),
        fault_seeds,
    };
    // Calibrate saturation: a run without SLOs gives each tenant's mean
    // block service time at its static share. Three tenants share the
    // core, so a period of 3x that is sustainable; the deadlines are that
    // period shrunk by the overload factor.
    let t = Instant::now();
    let base = mrts_multitask::run_multitask(
        ArchParams::default(),
        COMBO,
        &specs(&inputs, false),
        &config(false),
    )
    .expect("calibration run");
    inputs.slos = base
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let per_block = t.run.total_makespan().get() / t.run.blocks.len().max(1) as u64;
            Slo {
                session_deadline: None,
                block_period: Some(Cycles::new(
                    (per_block * APPS.len() as u64 * 100 / OVERLOAD_PCT).max(1),
                )),
                criticality: if i == 0 {
                    Criticality::Hard
                } else {
                    Criticality::Soft
                },
            }
        })
        .collect();
    let calibrate_ns = ns_since(t);
    let lower = inputs.apps.iter().map(|a| a.lower_ns).sum();
    let catalog = inputs.apps.iter().map(|a| a.catalog_ns).sum();
    let trace = inputs.apps.iter().map(|a| a.trace_ns).sum::<u64>() + calibrate_ns;
    (inputs, [lower, catalog, trace])
}

/// What one repetition produced.
struct Rep {
    stats: MultitaskStats,
    events: Vec<(u32, SimEvent)>,
    jsonl_bytes: usize,
    dispatch_order: Vec<usize>,
    /// Host time of the whole repetition (runner build to encoded JSONL).
    total_ns: u64,
    encode_ns: u64,
    step_ns: Vec<u64>,
    settle_ns: u64,
}

/// Drives one run. Plain: one clock read per dispatch iteration (step plus
/// its settle calls). Traced: step and settle timed apart.
fn rep(inputs: &Inputs, pass: Pass, samples: &mut Vec<u64>) -> Rep {
    let specs = specs(inputs, true);
    let cfg = config(true);
    samples.clear();
    let mut dispatch_order = Vec::new();
    let mut settle_ns = 0u64;
    let mut step_ns = Vec::new();
    let start = Instant::now();
    let mut runner = MultitaskRunner::new(ArchParams::default(), COMBO, &specs, &cfg, true)
        .expect("runner builds");
    let mut prev = Instant::now();
    loop {
        let outcome = runner.step();
        let after_step = (pass == Pass::Traced).then(Instant::now);
        let ran = match outcome {
            StepOutcome::Idle => {
                if !runner.force_admit_next() {
                    break;
                }
                false
            }
            StepOutcome::Ran { tenant, finished } => {
                if finished {
                    runner.finish_session(tenant);
                }
                runner.ladder_maybe();
                dispatch_order.push(tenant);
                true
            }
        };
        let now = Instant::now();
        if let Some(mid) = after_step {
            step_ns.push(ns(mid - prev));
            settle_ns += ns(now - mid);
        }
        if ran {
            samples.push(ns(now - prev));
        }
        prev = now;
    }
    let (stats, events) = runner.into_stats();
    let t = Instant::now();
    let jsonl = events_to_jsonl(&events).expect("events encode");
    let encode_ns = ns_since(t);
    Rep {
        stats,
        jsonl_bytes: jsonl.len(),
        events,
        dispatch_order,
        total_ns: ns_since(start),
        encode_ns,
        step_ns,
        settle_ns,
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let instances = setup_reps(
        report,
        ["ingest.lower_ms", "ise.catalog_ms", "workload.trace_ms"],
        || build(args.seed),
        |a: &Vec<Inputs>, b| {
            a.iter().zip(b).all(|(x, y)| {
                x.slos == y.slos && x.apps.iter().zip(&y.apps).all(|(p, q)| p.trace == q.trace)
            })
        },
    );
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut positions: Vec<Option<PositionSamples>> = (0..INSTANCES).map(|_| None).collect();
    let mut step_p50 = Vec::new();
    let mut step_total = vec![Vec::new(); INSTANCES];
    let mut settle_total = vec![Vec::new(); INSTANCES];
    let mut encode_ms = vec![Vec::new(); INSTANCES];
    let mut rep_s = vec![Vec::new(); INSTANCES];
    let mut blocks = 0u64;
    let mut reps = 0usize;
    let mut reference: Vec<(u64, Rep)> = Vec::new();
    while reps < 2 * INSTANCES || start.elapsed().as_secs_f64() < args.seconds {
        let k = reps % INSTANCES;
        let mut r = rep(&instances[k], args.pass, &mut samples);
        rep_s[k].push(r.total_ns as f64 * report.speed.after_rep() / 1e9);
        blocks += samples.len() as u64;
        positions[k]
            .get_or_insert_with(|| PositionSamples::new(samples.len()))
            .push(&samples);
        encode_ms[k].push(r.encode_ns as f64 / 1e6);
        if args.pass == Pass::Traced {
            step_total[k].push(r.step_ns.iter().sum::<u64>() as f64);
            settle_total[k].push(r.settle_ns as f64);
            // A sanity assert, not an output check: consecutive spans of one
            // monotonic clock hold it by construction.
            assert!(
                r.step_ns.iter().sum::<u64>() + r.settle_ns + r.encode_ns <= r.total_ns,
                "layer self-times exceed the traced total"
            );
            step_p50.push(quantile(&mut r.step_ns, 0.50));
        }
        let trace_blocks: usize = instances[k].apps.iter().map(|a| a.trace.len()).sum();
        let run_blocks: usize = r.stats.tenants.iter().map(|t| t.run.blocks.len()).sum();
        report.check(
            samples.len() == trace_blocks && run_blocks == trace_blocks,
            "one dispatch and one simulated block per trace activation",
        );
        if reference.len() < INSTANCES {
            reference.push((digest(&format!("{:?}{}", r.stats, r.events.len())), r));
        } else {
            let x = &reference[k].1;
            report.check(
                r.stats == x.stats && r.events.len() == x.events.len(),
                "multitask-slo stats and event count repeat exactly",
            );
        }
        reps += 1;
    }
    report.digest = digest(
        &reference
            .iter()
            .map(|(d, _)| format!("{d:x}"))
            .collect::<String>(),
    );
    let stats: Vec<&MultitaskStats> = reference.iter().map(|(_, r)| &r.stats).collect();
    let turn_s = cycle_time(&rep_s);
    let turn_blocks: usize = reference.iter().map(|(_, r)| r.dispatch_order.len()).sum();
    let turn_sessions: usize = stats.iter().map(|s| s.tenants.len()).sum();
    report.metric_at_reference("blocks_per_s", turn_blocks as f64 / turn_s, "blocks/s");
    report.metric_at_reference(
        "sessions_per_s",
        turn_sessions as f64 / turn_s,
        "sessions/s",
    );
    let mut medians: Vec<u64> = positions
        .iter()
        .flatten()
        .flat_map(PositionSamples::medians)
        .collect();
    report.metric("block_p50_us", quantile(&mut medians, 0.50) / 1e3, "us");
    report.metric("block_p99_us", quantile(&mut medians, 0.99) / 1e3, "us");
    report.metric("bench.block_samples", blocks as f64, "count");
    report.metric(
        "sim_mcycles",
        stats.iter().map(|s| s.makespan.get()).sum::<u64>() as f64 / 1e6,
        "Mcycles",
    );
    let turnarounds: Vec<u64> = stats
        .iter()
        .flat_map(|s| &s.tenants)
        .map(|t| t.turnaround.get())
        .collect();
    report.metric(
        "session_p99_mcycles",
        mrts_sim::nearest_rank_percentile(&turnarounds, 0, 99, 100) as f64 / 1e6,
        "Mcycles",
    );
    let misses: u64 = stats.iter().map(|s| s.deadline_misses()).sum();
    let deadlines: u64 = stats.iter().map(|s| s.slo_deadlines()).sum();
    report.metric(
        "failed_ratio",
        misses as f64 / deadlines.max(1) as f64,
        "ratio",
    );
    if args.pass == Pass::Plain {
        return;
    }

    // Per-layer counts and times are totals over one turn of the
    // instances; each instance's times are its median over repetitions.
    let per_turn = |v: &[Vec<f64>]| v.iter().map(|x| median(x)).sum::<f64>();
    let sum = |f: fn(&MultitaskStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let dispatches: usize = reference.iter().map(|(_, r)| r.dispatch_order.len()).sum();
    let runs: usize = reference
        .iter()
        .map(|(_, r)| run_count(&r.dispatch_order))
        .sum();
    report.metric("multitask.step.calls", dispatches as f64, "count");
    report.metric("multitask.step.ns_p50", median(&step_p50), "ns");
    report.metric("multitask.step.ns_total", per_turn(&step_total), "ns");
    report.metric("multitask.settle.ns_total", per_turn(&settle_total), "ns");
    report.metric(
        "multitask.same_tenant_run_mean",
        dispatches as f64 / runs.max(1) as f64,
        "blocks",
    );
    report.metric("multitask.dispatches", dispatches as f64, "count");
    report.metric(
        "multitask.context_switches",
        sum(|s| s.context_switches),
        "count",
    );
    report.metric("multitask.repartitions", sum(|s| s.repartitions), "count");
    report.metric(
        "multitask.degrade_steps",
        sum(MultitaskStats::degrade_steps),
        "count",
    );
    report.metric("multitask.deadline_misses", misses as f64, "count");
    let all_events: Vec<(u32, SimEvent)> = reference
        .iter()
        .flat_map(|(_, r)| r.events.iter().cloned())
        .collect();
    let sink = CountingSink::of(&all_events);
    report.metric(
        "sim.events.per_block",
        sink.events as f64 / dispatches as f64,
        "events/block",
    );
    let bytes: usize = reference.iter().map(|(_, r)| r.jsonl_bytes).sum();
    report.metric("sim.events.bytes", bytes as f64, "bytes");
    report.metric("sim.events.encode_ms", per_turn(&encode_ms), "ms");
    report.metric("bench.reps", reps as f64, "count");
    let runs: Vec<_> = stats
        .iter()
        .flat_map(|s| &s.tenants)
        .map(|t| t.run.clone())
        .collect();
    crate::exec_shares(&runs, report);
    crate::arch_metrics(&runs, &sink, report);

    // The benchmark-driven loop must be the batch runner, byte for byte.
    for (inputs, (_, r)) in instances.iter().zip(&reference) {
        let mut vec_sink = VecSink::new();
        let batch = run_multitask_with_events(
            ArchParams::default(),
            COMBO,
            &specs(inputs, true),
            &config(true),
            &mut vec_sink,
        )
        .expect("batch run");
        report.check(
            batch == r.stats && vec_sink.take() == r.events,
            "driven runner loop equals run_multitask_with_events",
        );
    }
}
