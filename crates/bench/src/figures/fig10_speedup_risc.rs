//! Fig. 10 — application speedup of mRTS compared to RISC-mode execution,
//! grouped by resource kind (FG-only / CG-only / multi-grained).
//!
//! Shape to verify: FG-only (PRCs only) combinations reach ≈1.8–2.2×;
//! multi-grained combinations exceed 5× as mRTS starts employing MG-ISEs
//! and the monoCG-Extension; a small mixed machine (1 CG + 1 PRC) beats
//! considerably larger single-fabric machines.

use super::{all, max, mean, Opts};
use crate::{par, Testbed};
use mrts_arch::Resources;
use std::io::{self, Write};

pub(super) fn body(out: &mut dyn Write, opts: &Opts) -> io::Result<bool> {
    let tb = Testbed::new("h264", opts.seed).map_err(io::Error::other)?;
    let risc = tb
        .run_policy(Resources::NONE, "risc")
        .map_err(io::Error::other)?;
    let risc_time = risc.total_execution_time().get() as f64;

    let mg = [
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
        (2, 3),
        (3, 2),
        (3, 3),
        (4, 3),
    ];
    let groups: [(&str, Vec<Resources>); 3] = [
        ("FG-only", (1..=3).map(Resources::prc_only).collect()),
        ("CG-only", (1..=3).map(Resources::cg_only).collect()),
        (
            "multi-grained",
            mg.map(|(cg, prc)| Resources::new(cg, prc)).to_vec(),
        ),
    ];

    // One flat job list across every group; each cell is an independent
    // deterministic mRTS run. Results come back in input order, so the
    // grouped table below prints identical bytes for any `--threads`.
    let all_combos: Vec<Resources> = groups.iter().flat_map(|(_, c)| c.iter().copied()).collect();
    let speedup_of: Vec<f64> = all(par::map_ordered(opts.threads, &all_combos, |_, &combo| {
        tb.run_policy(combo, "mrts")
            .map(|stats| risc_time / stats.total_execution_time().get() as f64)
    }))?;
    let speedup = |c| {
        all_combos
            .iter()
            .position(|&x| x == c)
            .map_or(f64::NAN, |i| speedup_of[i])
    };

    let mut group_max = [0.0; 3];
    for ((name, combos), top) in groups.iter().zip(&mut group_max) {
        writeln!(out, "--- {name} ---")?;
        let speedups: Vec<f64> = combos.iter().map(|&c| speedup(c)).collect();
        for (combo, s) in combos.iter().zip(&speedups) {
            let (cg, prc, bar) = (combo.cg(), combo.prc(), "#".repeat((s * 10.0) as usize));
            writeln!(out, "  {cg:>2} CG {prc:>2} PRC : {s:>5.2}x  {bar}")?;
        }
        writeln!(out, "  group mean: {:.2}x", mean(&speedups))?;
        *top = max(&speedups);
    }
    let [fg_max, _, mg_max] = group_max;
    writeln!(out, "{}", "-".repeat(64))?;
    writeln!(
        out,
        "FG-only range: up to {fg_max:.2}x (paper: 1.8x - 2.2x)"
    )?;
    writeln!(
        out,
        "multi-grained: up to {mg_max:.2}x (paper: more than 5x)"
    )?;

    // The paper's headline comparison: 1 PRC + 1 CG vs 3 PRCs / 3 CGs.
    // The three machines are already cells of the sweep (deterministic:
    // rerunning them would reproduce the same stats bit for bit).
    let small_mg = speedup(Resources::new(1, 1));
    let three_prc = speedup(Resources::prc_only(3));
    let three_cg = speedup(Resources::cg_only(3));
    writeln!(
        out,
        "1 CG + 1 PRC: {small_mg:.2}x vs 3 PRCs: {three_prc:.2}x vs 3 CGs: {three_cg:.2}x \
         (paper: the small mixed machine performs significantly better)"
    )?;
    Ok(true)
}
