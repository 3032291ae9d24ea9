//! Fleet figure — accepted throughput vs. offered load, dynamic vs. static.
//!
//! The paper evaluates mRTS one application at a time; `fig_multitask`
//! extends it to a fixed tenant batch. This figure closes the loop with the
//! service-provider view of `mrts-fleet`: an *open-loop* Poisson stream of
//! FFT/cipher sessions arrives at two fabric shards, each shard time-shares
//! its core across four admission lanes, and the offered load sweeps from
//! comfortable (every session accepted) past the saturation knee (the
//! admission controller starts shedding). Two contenders run the identical
//! arrival trace:
//!
//! * **dynamic mRTS** — demand-driven fabric re-apportionment: a departing
//!   session's slices are redistributed to slice-constrained incumbents,
//!   and newcomers claw back only to a half-base floor,
//! * **static-part** — the Morpheus/4S-style fixed even split: a departing
//!   session's slices idle until the lane is re-filled.
//!
//! Shape to verify: dynamic accepts at least as many sessions (and at
//! least the accepted throughput) as static at **every** load point, with
//! the accepted-session gap widening toward saturation — redistribution
//! only has material work to do once departures free capacity that arrivals
//! cannot immediately re-fill. Cells fan out over worker threads via
//! `par::map_ordered`; output is byte-identical at any `--threads` because
//! the fleet driver is deterministic and printing happens serially.
//!
//! `--quick` (CI smoke) runs fewer sessions.

use super::{all, verdict, Opts};
use crate::par;
use mrts_arch::{ArchParams, Cycles, Resources};
use mrts_fleet::{
    poisson_arrivals, run_fleet, AppRegistry, FleetConfig, FleetError, PoissonConfig,
};
use mrts_multitask::{ArbiterPolicy, MultitaskConfig, TenantRequest};
use mrts_sim::FleetStats;
use std::io::{self, Write};

/// Swept mean inter-arrival gaps, heaviest-gap (lightest load) first. The
/// service capacity of the two shards tops out near 0.30 sessions/Mcycle,
/// so the offered loads 1e6/gap = 0.20/0.25/0.33/0.40 straddle the knee.
const GAPS: [u64; 4] = [5_000_000, 4_000_000, 3_000_000, 2_500_000];

/// The two contenders of the figure.
const CONFIGS: [(&str, ArbiterPolicy); 2] = [
    ("dynamic", ArbiterPolicy::Dynamic),
    ("static-part", ArbiterPolicy::Static),
];

/// The two apps of the session mix.
const APPS: [&str; 2] = ["fft", "cipher"];

/// Long sessions on a tight machine: the `fig_multitask` regime. Sessions
/// must be able to exhaust their slice (tight budget) and live long enough
/// to amortize the reconfiguration cost of a mid-run grant (high
/// repartition threshold), else redistribution never pays.
const BUDGET: Resources = Resources::new(4, 3);
const REPART_MIN: u64 = 2_000_000;

pub(super) fn body(out: &mut dyn Write, opts: &Opts) -> io::Result<bool> {
    let sessions: usize = if opts.quick { 2_000 } else { 10_000 };
    let quick = if opts.quick { " [--quick]" } else { "" };
    writeln!(
        out,
        "fleet: {sessions} Poisson fft+cipher sessions over 2 fabrics of {BUDGET} (4 lanes, 16-deep queue each){quick}"
    )?;

    let registry = AppRegistry::new(&ArchParams::default(), &APPS, 4, opts.seed, 16)
        .map_err(io::Error::other)?;
    // One fleet run: `sessions` Poisson arrivals at mean gap `gap`.
    let run_cell = |gap: u64, arbiter: ArbiterPolicy| -> Result<FleetStats, FleetError> {
        let records = poisson_arrivals(&PoissonConfig {
            seed: opts.seed,
            sessions,
            mean_gap: gap,
            mix: APPS
                .iter()
                .map(|&app| TenantRequest {
                    app: app.to_owned(),
                    weight: 1,
                    slo: None,
                })
                .collect(),
            variants: 4,
        });
        let cfg = FleetConfig {
            multitask: MultitaskConfig {
                arbiter,
                repartition_min_demand: Cycles::new(REPART_MIN),
                ..MultitaskConfig::default()
            },
            budget: BUDGET,
            ..FleetConfig::default()
        };
        Ok(run_fleet(&ArchParams::default(), &registry, &records, &cfg)?.stats)
    };

    // One cell per (gap, contender); fan out across workers.
    let cells: Vec<(u64, ArbiterPolicy)> = GAPS
        .iter()
        .flat_map(|&g| CONFIGS.iter().map(move |&(_, arbiter)| (g, arbiter)))
        .collect();
    let runs = all(par::map_ordered(
        opts.threads,
        &cells,
        |_, &(g, arbiter)| run_cell(g, arbiter),
    ))?;

    writeln!(
        out,
        "\n mean-gap offered |   contender accepted   rej% |  thrput   p50-lat   p95-lat   jain"
    )?;
    writeln!(out, "{}", "-".repeat(89))?;
    let mut ok_accept = true;
    let mut ok_thrput = true;
    let mut widening = true;
    let mut prev_delta: i64 = i64::MIN;
    for (g, row) in GAPS.iter().zip(runs.chunks(CONFIGS.len())) {
        for ((label, _), s) in CONFIGS.iter().zip(row) {
            let (k, offered, rejected) = (g / 1000, 1e6 / *g as f64, 100.0 * s.rejection_rate());
            let [p50, p95] = [50, 95].map(|p| s.latency_percentile(p, 100) as f64 / 1e6);
            let (accepted, thrput, jain) = (s.accepted, s.throughput(), s.mean_window_jain());
            writeln!(
                out,
                "{k:>8}k {offered:>7.2} | {label:>11} {accepted:>8} {rejected:>5.1}% | {thrput:>7.4} {p50:>8.2}M {p95:>8.2}M {jain:>6.3}"
            )?;
        }
        if let [dyn_s, s] = row {
            ok_accept &= dyn_s.accepted >= s.accepted;
            // Compare at the table's print resolution: sub-1e-4 makespan
            // jitter from drain-tail repartition charges is not a regression.
            ok_thrput &= dyn_s.throughput() + 5e-5 >= s.throughput();
            let delta = dyn_s.accepted as i64 - s.accepted as i64;
            widening &= delta >= prev_delta;
            prev_delta = delta;
        }
        writeln!(out, "{}", "-".repeat(89))?;
    }
    // Determinism smoke: the heaviest-load dynamic cell replayed serially
    // and on 4 worker threads must be byte-identical — the fleet driver
    // steps shards in (clock, index) order regardless of who computes.
    let heavy = GAPS[GAPS.len() - 1];
    let replay = all(par::map_ordered(4, &[(); 4], |_, &()| {
        run_cell(heavy, ArbiterPolicy::Dynamic)
    }))?;
    let serial = run_cell(heavy, ArbiterPolicy::Dynamic).map_err(io::Error::other)?;
    let mut holds = true;
    for (label, ok) in [
        (
            "dynamic >= static accepted sessions  at every load point",
            ok_accept,
        ),
        (
            "dynamic >= static accepted throughput at every load point",
            ok_thrput,
        ),
        ("dynamic advantage widens toward saturation", widening),
        (
            "serial vs 4-worker replay byte-identical (fleet stats)",
            replay.iter().all(|r| *r == serial),
        ),
    ] {
        holds &= verdict(out, label, ok, "")?;
    }
    Ok(holds)
}
