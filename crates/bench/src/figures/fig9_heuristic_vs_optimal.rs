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

use super::{all, mean, run_policies, Opts};
use crate::{fig9_combos, par, Testbed};
use mrts_arch::Resources;
use std::io::{self, Write};

pub(super) fn body(out: &mut dyn Write, opts: &Opts) -> io::Result<bool> {
    let tb = Testbed::new("h264", opts.seed).map_err(io::Error::other)?;
    // The RISC-mode reference for the "performance improvement" metric the
    // paper's Fig. 9 uses (improvement = cycles saved vs RISC-mode).
    let risc = tb
        .run_policy(Resources::NONE, "risc")
        .map_err(io::Error::other)?
        .total_execution_time()
        .get() as f64;
    writeln!(out, "   CG  PRC |   mRTS(Mcyc)    opt(Mcyc) |    diff%")?;
    writeln!(out, "{}", "-".repeat(56))?;
    let mut with_cg = Vec::new();
    let mut fg_only = Vec::new();
    let mut worst = (0.0f64, Resources::NONE);
    // The 27 (greedy, online-optimal) pairs are independent deterministic
    // cells — including the exhaustive optimal, the sweep's straggler —
    // so fan them out and fold the table serially in input order.
    let combos: Vec<Resources> = fig9_combos()
        .into_iter()
        .filter(|c| !c.is_empty())
        .collect();
    let pairs = all(par::map_ordered(opts.threads, &combos, |_, &combo| {
        run_policies(&tb, combo, ["mrts", "optimal"])
    }))?;
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
        let (cg, prc, m, o) = (combo.cg(), combo.prc(), m / 1e6, o / 1e6);
        writeln!(out, "{cg:>5} {prc:>4} | {m:>12.3} {o:>12.3} | {diff:>7.2}%")?;
    }
    writeln!(out, "{}", "-".repeat(56))?;
    writeln!(
        out,
        "mean gap with >=1 CG fabric : {:>5.2}%   (paper: within ~3%)",
        mean(&with_cg)
    )?;
    let fg_only = mean(&fg_only);
    writeln!(out, "mean gap on FG-only machines: {fg_only:>5.2}%")?;
    writeln!(
        out,
        "worst case                  : {:>5.2}% at {}   (paper: ~11% at 4 PRCs, 0 CG)",
        worst.0, worst.1
    )?;
    Ok(true)
}
