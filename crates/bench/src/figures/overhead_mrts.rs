//! Section 5.4 — implementation overhead of mRTS.
//!
//! Reports, per fabric combination, the average *computed* selection cost
//! per kernel (the paper: *"on average … less than 3000 cycles to select an
//! ISE for each kernel"*) and the fraction of the total execution time
//! charged to the run-time system (*"about 1.9% of an average execution
//! time of a functional block … negligible"*), with and without the
//! overlap-hiding of the selection computation behind the reconfiguration
//! process.

use super::{mean, Opts, HEADLINE};
use crate::Testbed;
use mrts_arch::Resources;
use mrts_core::{Mrts, MrtsConfig};
use std::io::{self, Write};

pub(super) fn body(out: &mut dyn Write, opts: &Opts) -> io::Result<bool> {
    let tb = Testbed::new("h264", opts.seed).map_err(io::Error::other)?;
    let combos = [
        Resources::new(1, 1),
        HEADLINE,
        Resources::new(2, 3),
        Resources::new(4, 3),
    ];
    writeln!(
        out,
        "   CG  PRC |    cycles/kernel |  hidden ovh% |  unhidden ovh%"
    )?;
    writeln!(out, "{}", "-".repeat(64))?;
    let mut per_kernel_all = Vec::new();
    let mut hidden_all = Vec::new();
    for combo in combos {
        // The computed cost is read off the policy after its run, so this
        // figure keeps the `Mrts` instance rather than running it by name.
        let mut mrts = Mrts::new();
        let stats = tb.run(combo, &mut mrts).map_err(io::Error::other)?;
        let per_kernel = mrts.avg_selection_cycles_per_kernel();
        let hidden = stats.overhead_fraction() * 100.0;

        let mut unhidden_mrts = Mrts::with_config(MrtsConfig {
            hide_overhead: false,
            ..MrtsConfig::default()
        });
        let unhidden_stats = tb
            .run(combo, &mut unhidden_mrts)
            .map_err(io::Error::other)?;
        let unhidden = unhidden_stats.overhead_fraction() * 100.0;

        per_kernel_all.push(per_kernel);
        hidden_all.push(hidden);
        let (cg, prc) = (combo.cg(), combo.prc());
        writeln!(
            out,
            "{cg:>5} {prc:>4} | {per_kernel:>16.0} | {hidden:>11.2}% | {unhidden:>13.2}%"
        )?;
    }
    writeln!(out, "{}", "-".repeat(64))?;
    writeln!(
        out,
        "average selection cost: {:.0} cycles per kernel (paper: < 3000)",
        mean(&per_kernel_all)
    )?;
    writeln!(
        out,
        "average charged overhead: {:.2}% of execution time (paper: ~1.9%)",
        mean(&hidden_all)
    )?;
    Ok(true)
}
