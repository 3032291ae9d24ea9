//! Fig. 2 — execution behaviour of the H.264 deblocking filter over time.
//!
//! Plots (as a text series) the number of deblocking-filter executions in
//! each subsequently encoded frame and labels which of the three case-study
//! ISEs would be performance-wise best for that frame's count.
//!
//! Shape to verify: the counts fluctuate strongly frame-to-frame (driven by
//! the input video), and the best ISE changes across frames — *"the
//! performance-wise best ISE during one iteration of the kernel does not
//! remain the best option for the next iteration"*.

use super::Opts;
use crate::Testbed;
use mrts_workload::{VideoModel, WorkloadModel};
use std::collections::BTreeSet;
use std::io::{self, Write};

pub(super) fn body(out: &mut dyn Write, opts: &Opts) -> io::Result<bool> {
    let tb = Testbed::new("h264", opts.seed).map_err(io::Error::other)?;
    let deblock = tb.kernel("deblock");
    let frames = VideoModel::paper_default(opts.seed).frames();

    let [ise1, ise2, ise3] = tb.case_study_ises();
    let ises = [("ISE-1", ise1), ("ISE-2", ise2), ("ISE-3", ise3)];

    writeln!(out, "frame | executions |   best | bar")?;
    writeln!(out, "{}", "-".repeat(72))?;
    let mut distinct = BTreeSet::new();
    for f in &frames {
        let e = tb.model.kernel_executions(f)[usize::from(deblock.index())];
        let (mut best, mut best_pif) = ("?", f64::NEG_INFINITY);
        for (name, ise) in &ises {
            let pif = ise.performance_improvement_factor(e, ise.isolated_reconfig_latency());
            if pif > best_pif {
                best_pif = pif;
                best = name;
            }
        }
        distinct.insert(best);
        let bar = "#".repeat((e / 150) as usize);
        writeln!(out, "{:>5} | {e:>10} | {best:>6} | {bar}", f.index)?;
    }
    writeln!(out, "{}", "-".repeat(72))?;
    writeln!(
        out,
        "distinct best-ISE labels over the sequence: {distinct:?}"
    )?;
    writeln!(
        out,
        "(paper: the best ISE changes across frames as the workload varies)"
    )?;
    Ok(true)
}
