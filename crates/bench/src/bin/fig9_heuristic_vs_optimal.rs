//! Fig. 9 — the greedy ISE selection algorithm vs. the (run-time) optimal
//! algorithm.
//!
//! For every fabric combination the harness runs the full trace once under
//! mRTS (greedy heuristic) and once under the online-optimal policy
//! (identical MPU/ECU, exact selection at every trigger) and reports the
//! percentage performance difference.
//!
//! Shape to verify: the difference stays within a few percent whenever at
//! least one CG fabric is available; the worst case occurs on FG-only
//! machines with several PRCs, where the greedy selector *"often assigns
//! 3 out of 4 PRCs to one kernel, while the optimal algorithm shares them
//! equally between the two most important kernels"* (paper: ≈11% worst
//! case, ≈3% with ≥1 CG fabric).

use mrts_bench::{fig9_combos, mean, par, print_header, Testbed, DEFAULT_SEED};

fn main() {
    let threads = par::ThreadConfig::from_args();
    print_header(
        "Fig. 9",
        "% performance difference: greedy ISE selection vs. online-optimal",
        DEFAULT_SEED,
    );
    let tb = Testbed::new("h264", DEFAULT_SEED).expect("builtin app lowers");
    // The RISC-mode reference for the "performance improvement" metric the
    // paper's Fig. 9 uses (improvement = cycles saved vs RISC-mode).
    let risc = tb
        .run_policy(mrts_arch::Resources::NONE, "risc")
        .expect("listed policy")
        .total_execution_time()
        .get() as f64;
    println!(
        "{:>5} {:>4} | {:>12} {:>12} | {:>8}",
        "CG", "PRC", "mRTS(Mcyc)", "opt(Mcyc)", "diff%"
    );
    println!("{}", "-".repeat(56));
    let mut with_cg = Vec::new();
    let mut fg_only = Vec::new();
    let mut worst = (0.0f64, mrts_arch::Resources::NONE);
    // The 28 (greedy, online-optimal) pairs are independent deterministic
    // cells — including the exhaustive optimal, the sweep's straggler —
    // so fan them out and fold the table serially in input order.
    let combos: Vec<mrts_arch::Resources> = fig9_combos()
        .into_iter()
        .filter(|c| !c.is_empty())
        .collect();
    let pairs = par::sweep(threads, &combos, |_, &combo| {
        ["mrts", "optimal"].map(|name| tb.run_policy(combo, name).expect("listed policy"))
    });
    for (combo, [mrts, optimal]) in combos.iter().copied().zip(&pairs) {
        let m = mrts.total_execution_time().get() as f64;
        let o = optimal.total_execution_time().get() as f64;
        // Fig. 9's metric: percentage difference between the performance
        // *improvements* (cycles saved vs RISC-mode) of the two algorithms.
        let (imp_m, imp_o) = (risc - m, risc - o);
        let diff = if imp_o > 0.0 {
            (imp_o - imp_m) / imp_o * 100.0
        } else {
            0.0
        };
        if combo.cg() > 0 {
            with_cg.push(diff.max(0.0));
        } else {
            fg_only.push(diff.max(0.0));
        }
        if diff > worst.0 {
            worst = (diff, combo);
        }
        println!(
            "{:>5} {:>4} | {:>12.3} {:>12.3} | {:>7.2}%",
            combo.cg(),
            combo.prc(),
            m / 1e6,
            o / 1e6,
            diff
        );
    }
    println!("{}", "-".repeat(56));
    println!(
        "mean gap with >=1 CG fabric : {:>5.2}%   (paper: within ~3%)",
        mean(&with_cg)
    );
    println!("mean gap on FG-only machines: {:>5.2}%", mean(&fg_only));
    println!(
        "worst case                  : {:>5.2}% at {}   (paper: ~11% at 4 PRCs, 0 CG)",
        worst.0, worst.1
    );
}
