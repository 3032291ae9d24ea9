//! `fleet-churn`: open loop in simulated time. Seeded Poisson fft+cipher
//! sessions of 16 blocks arrive at 2 shards of 4 CG + 3 PRC (4 lanes and a
//! 16-deep queue each), at a mean gap just past the ~0.30 sessions/Mcycle
//! knee of `fig_fleet_sweep`. The arrivals come in a few seeded episodes,
//! each long enough for the backlog to fill the queues so that sessions
//! queue and are rejected as at the knee; each `run_fleet` call serves one
//! episode, and the timed loop cycles through them.

use std::time::Instant;

use mrts_arch::{ArchParams, Cycles, Machine, Resources};
use mrts_core::Mrts;
use mrts_fleet::{
    poisson_arrivals, run_fleet, AppRegistry, FleetConfig, FleetOutcome, PoissonConfig,
    SessionRecord,
};
use mrts_multitask::{MultitaskConfig, TenantRequest};
use mrts_sim::{nearest_rank_percentile, RunStats, RuntimePolicy, SimEvent, Simulator};

use crate::probe::{run_count, ShadowSelector, TimedPolicy};
use crate::util::{cycle_time, digest, median, ns_since, Report, SplitMix};
use crate::{setup_reps, Args, Pass};

const APPS: [&str; 2] = ["fft", "cipher"];
const VARIANTS: usize = 8;
const BLOCKS_PER_SESSION: usize = 16;
/// Sessions per episode (one `run_fleet` call).
const SESSIONS: usize = 2048;
const EPISODES: usize = 4;
/// 0.33 sessions/Mcycle offered, just past the knee.
const MEAN_GAP: u64 = 3_000_000;
const BUDGET: Resources = Resources::new(4, 3);

struct Inputs {
    registry: AppRegistry,
    episodes: Vec<Vec<SessionRecord>>,
}

fn fleet_config(record_events: bool) -> FleetConfig {
    FleetConfig {
        multitask: MultitaskConfig {
            repartition_min_demand: Cycles::new(2_000_000),
            workers: 1,
            ..MultitaskConfig::default()
        },
        fabrics: 2,
        ways: 4,
        queue_cap: 16,
        budget: BUDGET,
        record_events,
        ..FleetConfig::default()
    }
}

fn build(seed: u64) -> (Inputs, [u64; 3]) {
    let t = Instant::now();
    let registry = AppRegistry::new(
        &ArchParams::default(),
        &APPS,
        VARIANTS,
        seed,
        BLOCKS_PER_SESSION,
    )
    .expect("fleet registry");
    let registry_ns = ns_since(t);
    let t = Instant::now();
    let mut rng = SplitMix::new(seed ^ 0x666c_6565);
    let mix: Vec<TenantRequest> = APPS
        .iter()
        .map(|app| TenantRequest {
            app: (*app).to_owned(),
            weight: 1,
            slo: None,
        })
        .collect();
    let episodes = (0..EPISODES)
        .map(|_| {
            poisson_arrivals(&PoissonConfig {
                seed: rng.next_u64(),
                sessions: SESSIONS,
                mean_gap: MEAN_GAP,
                mix: mix.clone(),
                variants: VARIANTS as u64,
            })
        })
        .collect();
    let arrivals_ns = ns_since(t);
    (Inputs { registry, episodes }, [registry_ns, arrivals_ns, 0])
}

fn blocks_of(out: &FleetOutcome) -> u64 {
    out.shards
        .iter()
        .flat_map(|s| &s.tenants)
        .map(|t| t.run.blocks.len() as u64)
        .sum()
}

pub fn run(args: &Args, report: &mut Report) {
    let inputs = setup_reps(
        report,
        ["fleet.registry_ms", "fleet.arrivals_ms", ""],
        || build(args.seed),
        |a: &Inputs, b| {
            a.episodes == b.episodes
                && (0..APPS.len()).all(|i| {
                    (0..VARIANTS).all(|v| a.registry.trace(i, v) == b.registry.trace(i, v))
                })
        },
    );
    let params = ArchParams::default();
    let cfg = fleet_config(false);
    let start = Instant::now();
    let mut call_ms = Vec::new();
    let mut call_s = vec![Vec::new(); EPISODES];
    let mut reference: Vec<(u64, FleetOutcome)> = Vec::new();
    let mut calls = 0usize;
    while calls < 2 * EPISODES || start.elapsed().as_secs_f64() < args.seconds {
        let k = calls % EPISODES;
        let t = Instant::now();
        let out =
            run_fleet(&params, &inputs.registry, &inputs.episodes[k], &cfg).expect("fleet run");
        let dt = ns_since(t);
        call_s[k].push(dt as f64 * report.speed.after_rep() / 1e9);
        call_ms.push(dt as f64 / 1e6);
        if reference.len() < EPISODES {
            let d = digest(&format!(
                "{:?}{:?}{}",
                out.stats,
                out.shards,
                out.events.len()
            ));
            reference.push((d, out));
        } else {
            let r = &reference[k].1;
            report.check(
                out.stats == r.stats
                    && out.shards == r.shards
                    && out.events.len() == r.events.len(),
                "fleet-churn stats repeat exactly",
            );
        }
        calls += 1;
    }
    report.digest = digest(
        &reference
            .iter()
            .map(|(d, _)| format!("{d:x}"))
            .collect::<String>(),
    );
    let outs: Vec<&FleetOutcome> = reference.iter().map(|(_, o)| o).collect();
    let accepted_sessions = || {
        outs.iter()
            .flat_map(|o| &o.stats.sessions)
            .filter(|s| !s.rejected)
    };
    let latencies: Vec<u64> = accepted_sessions().map(|s| s.latency().get()).collect();
    let waits: Vec<u64> = accepted_sessions().map(|s| s.queue_wait().get()).collect();
    let offered: u64 = outs.iter().map(|o| o.stats.offered).sum();
    let rejected: u64 = outs.iter().map(|o| o.stats.rejected).sum();
    let turn_s = cycle_time(&call_s);
    let turn_blocks: u64 = outs.iter().map(|o| blocks_of(o)).sum();
    report.metric_at_reference("blocks_per_s", turn_blocks as f64 / turn_s, "blocks/s");
    report.metric("bench.block_samples", calls as f64, "count");
    report.metric_at_reference(
        "sessions_per_s",
        latencies.len() as f64 / turn_s,
        "sessions/s",
    );
    report.metric(
        "sim_mcycles",
        outs.iter().map(|o| o.stats.makespan.get()).sum::<u64>() as f64 / 1e6,
        "Mcycles",
    );
    report.metric(
        "session_p99_mcycles",
        nearest_rank_percentile(&latencies, 0, 99, 100) as f64 / 1e6,
        "Mcycles",
    );
    report.metric(
        "failed_ratio",
        rejected as f64 / offered.max(1) as f64,
        "ratio",
    );
    if args.pass == Pass::Plain {
        return;
    }

    report.metric("fleet.run_ms", median(&call_ms), "ms");
    report.metric("fleet.offered", offered as f64, "count");
    report.metric("fleet.accepted", latencies.len() as f64, "count");
    report.metric(
        "fleet.queued",
        outs.iter()
            .flat_map(|o| &o.stats.sessions)
            .filter(|s| s.queued)
            .count() as f64,
        "count",
    );
    report.metric("fleet.rejected", rejected as f64, "count");
    report.metric(
        "fleet.session_p50_mcycles",
        nearest_rank_percentile(&latencies, 0, 50, 100) as f64 / 1e6,
        "Mcycles",
    );
    report.metric(
        "fleet.queue_wait_p99_mcycles",
        nearest_rank_percentile(&waits, 0, 99, 100) as f64 / 1e6,
        "Mcycles",
    );
    report.metric("fleet.blocks", turn_blocks as f64, "count");
    report.metric("bench.reps", calls as f64, "count");
    let runs: Vec<RunStats> = outs
        .iter()
        .flat_map(|o| &o.shards)
        .flat_map(|s| &s.tenants)
        .map(|t| t.run.clone())
        .collect();
    crate::exec_shares(&runs, report);

    // Census: the episodes again with the spine recorded (untimed). Their
    // stats must equal the timed runs'; the spine gives each shard's
    // dispatch order.
    let mut dispatches = 0usize;
    let mut same_tenant_runs = 0usize;
    for (k, records) in inputs.episodes.iter().enumerate() {
        let out =
            run_fleet(&params, &inputs.registry, records, &fleet_config(true)).expect("fleet run");
        report.check(
            out.stats == reference[k].1.stats && out.shards == reference[k].1.shards,
            "recording the spine leaves fleet-churn stats unchanged",
        );
        let mut shard_of = std::collections::HashMap::new();
        let mut order: Vec<Vec<u32>> = vec![Vec::new(); cfg.fabrics];
        for (_, ev) in &out.events {
            match ev {
                SimEvent::SessionAdmitted {
                    session, fabric, ..
                } => {
                    shard_of.insert(*session, *fabric as usize);
                }
                SimEvent::TenantDispatch { tenant, .. } => {
                    if let Some(&f) = shard_of.get(tenant) {
                        order[f].push(*tenant);
                    }
                }
                _ => {}
            }
        }
        for seq in &order {
            dispatches += seq.len();
            same_tenant_runs += run_count(seq);
        }
    }
    report.metric(
        "multitask.same_tenant_run_mean",
        dispatches as f64 / same_tenant_runs.max(1) as f64,
        "blocks",
    );
    report.metric("multitask.dispatches", dispatches as f64, "count");
    trigger_repeats(&inputs, &outs, &cfg, report);
}

/// Trigger-repeat share, estimated from isolated replays: each
/// (app, variant) trace is replayed alone on a fresh mRTS over a lane's
/// base share, with the trigger history reset per session (each session
/// gets a fresh policy), and weighted by the accepted sessions. A session
/// in the fleet is granted min(base, free fabric), which changes as the
/// fleet repartitions; a fixed share repeats more, so the estimate is
/// likely an upper bound.
fn trigger_repeats(
    inputs: &Inputs,
    outs: &[&FleetOutcome],
    cfg: &FleetConfig,
    report: &mut Report,
) {
    let params = ArchParams::default();
    let pool = Machine::new(params.clone(), cfg.budget)
        .expect("valid machine")
        .capacity();
    let base = pool.split_even(cfg.ways)[0];
    let mut per_variant = [[(0u64, 0u64); VARIANTS]; APPS.len()];
    for (i, row) in per_variant.iter_mut().enumerate() {
        for (v, cell) in row.iter_mut().enumerate() {
            let mut machine = Machine::new(params.clone(), Resources::NONE).expect("valid machine");
            let _ = machine.resize_capacity(base);
            let catalog = inputs.registry.catalog(i);
            let mut policy = TimedPolicy::new(Mrts::new(), Some(ShadowSelector::new()));
            policy.set_resource_slice(Some(base));
            let mut sim = Simulator::new(catalog, machine);
            let mut stats = RunStats::default();
            for act in inputs.registry.trace(i, v).activations() {
                sim.step_activation(act, &mut policy, &mut stats);
            }
            let shadow = policy.shadow.expect("shadow armed");
            *cell = (shadow.triggers, shadow.repeats);
        }
    }
    let (mut triggers, mut repeats) = (0u64, 0u64);
    for (k, out) in outs.iter().enumerate() {
        for s in out.stats.sessions.iter().filter(|s| !s.rejected) {
            let i = APPS.iter().position(|a| *a == s.app).unwrap_or(0);
            let v = inputs.episodes[k][s.id as usize].variant as usize % VARIANTS;
            triggers += per_variant[i][v].0;
            repeats += per_variant[i][v].1;
        }
    }
    report.metric(
        "core.trigger_repeat_ratio",
        repeats as f64 / triggers.max(1) as f64,
        "ratio",
    );
    report.metric("core.triggers", triggers as f64, "count");
}
