//! Speculative-prefetch figure — FG configuration latency × predictor
//! confidence (DESIGN.md §12).
//!
//! The paper's run-time system is purely *trigger-time*: reconfiguration
//! for a functional block starts when the block's trigger instruction
//! retires, so every ms-scale fine-grained load sits squarely on the
//! critical path. This figure measures how much of that latency an online
//! control-flow predictor can hide by *speculatively* streaming the
//! predicted-next block's FG bitstreams during the current block — and
//! what misprediction costs.
//!
//! Sweep: FG configuration-port bandwidth (2× the paper's 67 584 KB/s
//! down to 1/8 of it — per-data-path load latency from ~0.6 ms to
//! ~10 ms at the 400 MHz core) × the prefetcher's confidence threshold. Per cell:
//! issued / hit / wasted speculations, the misprediction rate, and the
//! end-to-end speedup over the trigger-time-only run of the *same*
//! machine.
//!
//! Machine: 2 CG + 16 PRCs. Speculation only takes PRC slots the
//! committed plan left free (it never evicts, and demand traffic always
//! queues ahead of it), so the paper's headline 2+2 machine — where the
//! greedy selector saturates the fabric every block — never issues a
//! single speculation. The 16-PRC point is where the spare-capacity
//! regime the prefetcher targets actually exists.
//!
//! Invariants checked per swept point (the engine's structural
//! never-slower guarantee — exact trigger-time state is restored before
//! each block is planned, so a promotion strictly removes port work):
//!
//! * prefetch-on is **never slower** than trigger-time (any cell that is
//!   prints `VIOLATION`, which CI greps for);
//! * prefetch-on is **strictly faster** at ms-scale points where a
//!   speculation can complete within a block (a port so slow that no
//!   transfer finishes before the next trigger rolls everything back
//!   and lands at exactly 1.0000×, never below).
//!
//! `--quick` trims the sweep for CI; `--threads N` fans the bandwidth
//! points out across workers (the trace is shared; each point rebuilds its
//! own catalogue — FG load durations bake the port bandwidth in at
//! catalogue build).

use mrts_arch::{ArchParams, Machine, Resources};
use mrts_bench::{par, print_header, Testbed, DEFAULT_SEED};
use mrts_core::{Mrts, MrtsConfig, PrefetchConfig};
use mrts_sim::{PrefetchStats, RunStats, Simulator};
use mrts_workload::WorkloadModel;

/// Swept FG configuration-port bandwidths, as fractions of the paper's
/// 67 584 KB/s (numerator, denominator).
const BANDWIDTH_STEPS: [(u64, u64); 5] = [(2, 1), (1, 1), (1, 2), (1, 4), (1, 8)];

/// Swept confidence thresholds; 0.55 is `PrefetchConfig::default()`.
const CONFIDENCES: [f64; 4] = [0.30, 0.55, 0.75, 0.95];

/// One bandwidth point: the trigger-time baseline plus one prefetch-on
/// run per swept confidence threshold.
struct Point {
    bandwidth_kb_s: u64,
    /// Per-data-path FG load latency at this bandwidth, in Mcycles
    /// (largest unit in the catalogue).
    fg_load_mcycles: f64,
    baseline: RunStats,
    runs: Vec<(f64, RunStats, PrefetchStats)>,
}

fn sweep_point(tb: &Testbed, bandwidth_kb_s: u64, confidences: &[f64]) -> Point {
    let params = ArchParams::builder()
        .fg_config_bandwidth_kb_s(bandwidth_kb_s)
        .build()
        .expect("scaled bandwidth stays valid");
    let catalog = tb
        .model
        .application()
        .build_catalog(params.clone(), None)
        .expect("encoder kernels are mappable");
    let trace = &tb.trace;
    let combo = Resources::new(2, 16);
    let machine = || Machine::new(params.clone(), combo).expect("valid params");

    let fg_load_mcycles = catalog
        .units()
        .iter()
        .filter(|u| u.fabric() == mrts_arch::FabricKind::FineGrained)
        .map(|u| u.load_duration().get())
        .max()
        .unwrap_or(0) as f64
        / 1e6;

    let baseline = Simulator::run(&catalog, machine(), trace, &mut Mrts::new());
    let runs = confidences
        .iter()
        .map(|&c| {
            let cfg = MrtsConfig {
                prefetch: PrefetchConfig {
                    enabled: true,
                    confidence_min: c,
                    ..PrefetchConfig::default()
                },
                ..MrtsConfig::default()
            };
            let mut sim = Simulator::new(&catalog, machine());
            let stats = sim.run_trace(trace, &mut Mrts::with_config(cfg));
            sim.finish_events(); // close end-of-trace speculations as wasted
            (c, stats, sim.prefetch_stats())
        })
        .collect();
    Point {
        bandwidth_kb_s,
        fg_load_mcycles,
        baseline,
        runs,
    }
}

#[allow(clippy::cast_precision_loss)]
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    print_header(
        "fig_prefetch",
        "speculative reconfiguration prefetch: FG latency x predictor confidence",
        DEFAULT_SEED,
    );

    let steps: Vec<(u64, u64)> = if quick {
        vec![(1, 1), (1, 4)]
    } else {
        BANDWIDTH_STEPS.to_vec()
    };
    let confidences: Vec<f64> = if quick {
        vec![0.55]
    } else {
        CONFIDENCES.to_vec()
    };
    let bandwidths: Vec<u64> = steps.iter().map(|&(n, d)| 67_584 * n / d).collect();

    println!("machine: 2 CG + 16 PRC; H.264 encoder trace; speedups vs trigger-time mRTS");
    println!("         on the same machine (never-slower is the engine's invariant)");
    println!();
    println!(
        "{:>10} {:>8} | {:>5} | {:>6} {:>4} {:>6} {:>7} | {:>9} {:>9}",
        "FG KB/s", "load ms", "conf", "issued", "hits", "wasted", "mispred", "speedup", "verdict"
    );
    println!("{}", "-".repeat(82));

    let tb = Testbed::new("h264", DEFAULT_SEED);
    let points = par::sweep(
        par::ThreadConfig::from_env_and_args(),
        &bandwidths,
        |_, &bw| sweep_point(&tb, bw, &confidences),
    );

    let mut violations = 0usize;
    let mut ms_scale_cells = 0usize;
    let mut ms_scale_wins = 0usize;
    for p in &points {
        // 400 MHz core: 1 Mcycle = 2.5 ms.
        let load_ms = p.fg_load_mcycles * 2.5;
        for (i, (conf, stats, pf)) in p.runs.iter().enumerate() {
            let speedup = p.baseline.total_execution_time().get() as f64
                / stats.total_execution_time().get().max(1) as f64;
            let mispred = if pf.issued == 0 {
                0.0
            } else {
                pf.wasted as f64 / pf.issued as f64
            };
            let verdict = if speedup < 1.0 {
                violations += 1;
                "VIOLATION"
            } else if speedup > 1.0 {
                "faster"
            } else {
                "equal"
            };
            if load_ms >= 1.0 {
                ms_scale_cells += 1;
                if speedup > 1.0 {
                    ms_scale_wins += 1;
                }
            }
            let (bw_col, ms_col) = if i == 0 {
                (
                    format!("{:>10}", p.bandwidth_kb_s),
                    format!("{load_ms:>8.2}"),
                )
            } else {
                (" ".repeat(10), " ".repeat(8))
            };
            println!(
                "{bw_col} {ms_col} | {conf:>5.2} | {:>6} {:>4} {:>6} {:>6.0}% | {speedup:>8.4}x {verdict:>9}",
                pf.issued,
                pf.hits,
                pf.wasted,
                100.0 * mispred,
            );
        }
    }

    println!("{}", "-".repeat(82));
    if violations == 0 {
        println!("never-slower invariant: OK at every swept (bandwidth, confidence) point");
    } else {
        println!("never-slower invariant: {violations} VIOLATION(s) — prefetch made a run slower");
    }
    if ms_scale_wins > 0 {
        println!(
            "ms-scale payoff: strictly faster at {ms_scale_wins}/{ms_scale_cells} swept cells \
             with FG load >= 1 ms"
        );
    } else {
        println!("ms-scale payoff: VIOLATION — no strict win at any ms-scale point");
    }
    println!();
    println!("note: 'wasted' counts every rolled-back speculation — mispredictions AND");
    println!("      transfers too slow to finish inside one block (the engine only ever");
    println!("      promotes a speculation that completed before the next trigger, so a");
    println!("      saturated slow port shows high waste at exactly 1.0000x, never below).");
}
