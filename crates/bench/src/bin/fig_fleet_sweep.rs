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
//! `par::sweep`; output is byte-identical at any `--threads` because the
//! fleet driver is deterministic and printing happens serially.
//!
//! Flags: `--quick` (CI smoke: fewer sessions), `--threads N`.

use mrts_arch::{ArchParams, Cycles, Resources};
use mrts_bench::{par, print_header, DEFAULT_SEED};
use mrts_fleet::{poisson_arrivals, run_fleet, AppRegistry, FleetConfig, PoissonConfig};
use mrts_multitask::{ArbiterPolicy, MultitaskConfig, TenantRequest};
use mrts_sim::FleetStats;

/// Swept mean inter-arrival gaps, heaviest-gap (lightest load) first. The
/// service capacity of the two shards tops out near 0.30 sessions/Mcycle,
/// so the offered loads 1e6/gap = 0.20/0.25/0.33/0.40 straddle the knee.
const GAPS: [u64; 4] = [5_000_000, 4_000_000, 3_000_000, 2_500_000];

/// The two contenders of the figure.
const CONFIGS: [(&str, ArbiterPolicy); 2] = [
    ("dynamic", ArbiterPolicy::Dynamic),
    ("static-part", ArbiterPolicy::Static),
];

/// Long sessions on a tight machine: the `fig_multitask` regime. Sessions
/// must be able to exhaust their slice (tight budget) and live long enough
/// to amortize the reconfiguration cost of a mid-run grant (high
/// repartition threshold), else redistribution never pays.
const BUDGET: (u16, u16) = (4, 3);
const REPART_MIN: u64 = 2_000_000;

fn mix() -> Vec<TenantRequest> {
    ["fft", "cipher"]
        .iter()
        .map(|&app| TenantRequest {
            app: app.to_owned(),
            weight: 1,
            slo: None,
        })
        .collect()
}

fn run_cell(
    registry: &AppRegistry,
    sessions: usize,
    gap: u64,
    arbiter: ArbiterPolicy,
) -> FleetStats {
    let records = poisson_arrivals(&PoissonConfig {
        seed: DEFAULT_SEED,
        sessions,
        mean_gap: gap,
        mix: mix(),
        variants: 4,
    });
    let cfg = FleetConfig {
        multitask: MultitaskConfig {
            arbiter,
            repartition_min_demand: Cycles::new(REPART_MIN),
            ..MultitaskConfig::default()
        },
        budget: Resources::new(BUDGET.0, BUDGET.1),
        ..FleetConfig::default()
    };
    run_fleet(&ArchParams::default(), registry, &records, &cfg)
        .expect("fleet run must succeed")
        .stats
}

fn main() {
    let threads = par::ThreadConfig::from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    let sessions: usize = if quick { 2_000 } else { 10_000 };
    print_header(
        "Fleet load sweep",
        "accepted throughput vs offered load (dynamic re-apportionment / static split)",
        DEFAULT_SEED,
    );
    println!(
        "fleet: {sessions} Poisson fft+cipher sessions over 2 fabrics of {} (4 lanes, 16-deep queue each){}",
        Resources::new(BUDGET.0, BUDGET.1),
        if quick { " [--quick]" } else { "" }
    );

    let registry = AppRegistry::new(
        &ArchParams::default(),
        &["fft", "cipher"],
        4,
        DEFAULT_SEED,
        16,
    )
    .expect("app registry");

    // One cell per (gap, contender); fan out across workers.
    let cells: Vec<(u64, usize)> = GAPS
        .iter()
        .flat_map(|&g| (0..CONFIGS.len()).map(move |c| (g, c)))
        .collect();
    let runs: Vec<FleetStats> = par::sweep(threads, &cells, |_, &(g, c)| {
        run_cell(&registry, sessions, g, CONFIGS[c].1)
    });

    println!(
        "\n{:>9} {:>7} | {:>11} {:>8} {:>6} | {:>7} {:>9} {:>9} {:>6}",
        "mean-gap",
        "offered",
        "contender",
        "accepted",
        "rej%",
        "thrput",
        "p50-lat",
        "p95-lat",
        "jain"
    );
    println!("{}", "-".repeat(89));
    let mut ok_accept = true;
    let mut ok_thrput = true;
    let mut widening = true;
    let mut prev_delta: i64 = i64::MIN;
    for (i, &(g, c)) in cells.iter().enumerate() {
        let s = &runs[i];
        println!(
            "{:>8}k {:>7.2} | {:>11} {:>8} {:>5.1}% | {:>7.4} {:>8.2}M {:>8.2}M {:>6.3}",
            g / 1000,
            1e6 / g as f64,
            CONFIGS[c].0,
            s.accepted,
            100.0 * s.rejection_rate(),
            s.throughput(),
            s.latency_percentile(50, 100) as f64 / 1e6,
            s.latency_percentile(95, 100) as f64 / 1e6,
            s.mean_window_jain(),
        );
        if c == CONFIGS.len() - 1 {
            let dyn_s = &runs[i - 1];
            ok_accept &= dyn_s.accepted >= s.accepted;
            // Compare at the table's print resolution: sub-1e-4 makespan
            // jitter from drain-tail repartition charges is not a regression.
            ok_thrput &= dyn_s.throughput() + 5e-5 >= s.throughput();
            let delta = dyn_s.accepted as i64 - s.accepted as i64;
            widening &= delta >= prev_delta;
            prev_delta = delta;
            println!("{}", "-".repeat(89));
        }
    }
    println!(
        "dynamic >= static accepted sessions  at every load point: {}",
        if ok_accept {
            "yes"
        } else {
            "NO — regression!"
        }
    );
    println!(
        "dynamic >= static accepted throughput at every load point: {}",
        if ok_thrput {
            "yes"
        } else {
            "NO — regression!"
        }
    );
    println!(
        "dynamic advantage widens toward saturation: {}",
        if widening {
            "yes"
        } else {
            "NO — regression!"
        }
    );

    // Determinism smoke: the heaviest-load dynamic cell replayed serially
    // and on 4 worker threads must be byte-identical — the fleet driver
    // steps shards in (clock, index) order regardless of who computes.
    let heavy = *GAPS.last().expect("non-empty sweep");
    let replay: Vec<FleetStats> = par::map_ordered(4, &[(); 4], |_, &()| {
        run_cell(&registry, sessions, heavy, ArbiterPolicy::Dynamic)
    });
    let serial = run_cell(&registry, sessions, heavy, ArbiterPolicy::Dynamic);
    println!(
        "serial vs 4-worker replay byte-identical (fleet stats): {}",
        if replay.iter().all(|r| *r == serial) {
            "yes"
        } else {
            "NO — regression!"
        }
    );
    if !(ok_accept && ok_thrput && widening) {
        std::process::exit(1);
    }
}
