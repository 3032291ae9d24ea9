//! Fault sweep — graceful degradation under injected hardware faults.
//!
//! The paper's central claim is that multi-grained alternatives (full ISE →
//! intermediate ISE → monoCG-Extension → RISC) let the run-time system
//! degrade gracefully when resources change at run time. This harness
//! stresses that claim with *adversity* instead of sharing: a seeded
//! [`FaultModel`] injects bitstream-CRC load faults, permanent container
//! faults and transient execution upsets at a swept base rate, and the
//! table tracks how much of each policy's fault-free speedup (vs RISC-mode)
//! survives.
//!
//! Shape to verify: mRTS retains strictly more speedup than the RISPP-like
//! baseline at every fault rate in the realistic regime (1e-3 ..= 3e-2 per
//! load), because its selector re-plans each block against the *current*
//! (shrunken) resource vector, while the static offline baseline keeps
//! requesting containers that no longer exist. No policy may panic at any
//! swept rate. Beyond ~1e-1 the ranking can invert by a hair: when nearly a
//! third of accelerated executions are corrupted, every acceleration risks
//! a discard-and-rerun, so the policy that accelerates *most* pays the most
//! recovery — the sweep prints those rates for the curve's shape but keeps
//! them out of the pass/fail claim.

use mrts_arch::{FaultModel, Resources};
use mrts_baselines::{OfflineOptimalPolicy, RisppPolicy};
use mrts_bench::{geo_mean, par, print_header, Testbed, DEFAULT_SEED};
use mrts_core::Mrts;
use mrts_sim::{RiscOnlyPolicy, RunStats};

/// The swept per-load / per-execution base fault rates (permanent faults at
/// 2% of the base rate, see `FaultModel::new`).
const RATES: [f64; 9] = [0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1];

/// Fault seeds averaged per point (geometric mean of speedups).
const FAULT_SEEDS: [u64; 3] = [11, 12, 13];

fn main() {
    print_header(
        "Fault sweep",
        "speedup retention of RISPP-like / offline-optimal / mRTS under injected faults",
        DEFAULT_SEED,
    );
    let tb = Testbed::new("h264", DEFAULT_SEED);
    let combo = Resources::new(2, 2); // the paper's headline machine
    let capacity = tb.machine(combo).capacity();

    // Fault-free RISC-mode reference (RISC execution has no reconfigurable
    // data paths, so faults cannot touch it).
    let risc = tb.run(combo, &mut RiscOnlyPolicy::new());
    let speedup = |s: &RunStats| {
        risc.total_execution_time().get() as f64 / s.total_execution_time().get().max(1) as f64
    };

    println!("machine: {combo} ({capacity} usable slots); rates are per load / per execution");
    println!(
        "{:>9} | {:>7} {:>7} {:>7} | {:>6} {:>7} {:>5} {:>7} | {:>9}",
        "rate", "RISPP", "Offline", "mRTS", "fails", "retries", "lost", "degr", "recovMcy"
    );
    println!("{}", "-".repeat(88));

    // Flat (rate, seed) job list: each cell runs the three fault-injected
    // policies independently (seeded fault models, shared read-only testbed),
    // so the 27 cells fan out across workers; the per-rate tallies are folded
    // serially below in input order — the printed f64 sums see the seeds in
    // the same order as the old nested loop, keeping the table byte-identical.
    let cells: Vec<(f64, u64)> = RATES
        .iter()
        .flat_map(|&rate| FAULT_SEEDS.iter().map(move |&seed| (rate, seed)))
        .collect();
    let runs = par::sweep(
        par::ThreadConfig::from_env_and_args(),
        &cells,
        |_, &(rate, seed)| {
            let fm = || FaultModel::new(rate, seed);
            let rispp = tb.run_with_faults(combo, fm(), &mut RisppPolicy::new());
            let offline = tb.run_with_faults(
                combo,
                fm(),
                &mut OfflineOptimalPolicy::new(&tb.catalog, capacity, &tb.totals),
            );
            let mrts = tb.run_with_faults(combo, fm(), &mut Mrts::new());
            // Recovery accounting must never lose executions.
            assert_eq!(
                mrts.total_executions(),
                risc.total_executions(),
                "executions lost at rate {rate} seed {seed}"
            );
            (speedup(&rispp), speedup(&offline), mrts)
        },
    );

    let mut retained_mrts = Vec::new();
    let mut retained_rispp = Vec::new();
    let mut cell = 0usize;
    for rate in RATES {
        let mut sp = [Vec::new(), Vec::new(), Vec::new()];
        let mut fault_tally = (0u64, 0u64, 0u64, 0u64, 0.0f64);
        for _seed in FAULT_SEEDS {
            let (sp_rispp, sp_offline, mrts) = &runs[cell];
            cell += 1;
            sp[0].push(*sp_rispp);
            sp[1].push(*sp_offline);
            sp[2].push(speedup(mrts));
            fault_tally.0 += mrts.failed_loads;
            fault_tally.1 += mrts.retried_loads;
            fault_tally.2 += mrts.blacklisted_containers;
            fault_tally.3 += mrts.degraded_executions;
            fault_tally.4 += mrts.recovery_cycles.as_mcycles();
        }
        let n = FAULT_SEEDS.len() as u64;
        println!(
            "{rate:>9.0e} | {:>6.2}x {:>6.2}x {:>6.2}x | {:>6} {:>7} {:>5} {:>7} | {:>9.3}",
            geo_mean(&sp[0]),
            geo_mean(&sp[1]),
            geo_mean(&sp[2]),
            fault_tally.0 / n,
            fault_tally.1 / n,
            fault_tally.2 / n,
            fault_tally.3 / n,
            fault_tally.4 / n as f64,
        );
        if (1e-3..=3e-2).contains(&rate) {
            retained_rispp.push(geo_mean(&sp[0]));
            retained_mrts.push(geo_mean(&sp[2]));
        }
    }
    println!("{}", "-".repeat(88));
    println!(
        "mRTS speedup at rates 1e-3..=3e-2 : avg {:.2}x  (RISPP-like: {:.2}x)",
        geo_mean(&retained_mrts),
        geo_mean(&retained_rispp)
    );
    let all_ge = retained_mrts
        .iter()
        .zip(&retained_rispp)
        .all(|(m, r)| m > r);
    println!(
        "mRTS > RISPP-like at every swept rate in 1e-3..=3e-2: {}",
        if all_ge { "yes" } else { "NO — regression!" }
    );
}
