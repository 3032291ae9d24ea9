//! Fig. 1 — performance improvement factor (Eq. 1) of three deblocking-
//! filter ISEs over the number of kernel executions.
//!
//! The paper's case study (Section 2):
//!
//! * **ISE-1** — condition *and* filter data paths on the FG fabric,
//! * **ISE-2** — both on the CG fabric,
//! * **ISE-3** — condition on FG, filter on CG (multi-grained).
//!
//! Shape to verify: three regions — ISE-2 has the highest pif at low
//! execution counts (µs reconfiguration), ISE-1 at high counts (best
//! execution latency once its ms-scale loads amortize), ISE-3 in between.

use super::Opts;
use crate::Testbed;
use std::io::{self, Write};

pub(super) fn body(out: &mut dyn Write, opts: &Opts) -> io::Result<bool> {
    let tb = Testbed::new("h264", opts.seed).map_err(io::Error::other)?;

    // The three case-study ISEs: best full-coverage variant per grain.
    let [ise1, ise2, ise3] = tb.case_study_ises();
    writeln!(out, "ISE-1 (FG): {}", ise1.label())?;
    writeln!(out, "ISE-2 (CG): {}", ise2.label())?;
    writeln!(out, "ISE-3 (MG): {}", ise3.label())?;
    writeln!(out)?;

    // Reconfiguration latency on an otherwise idle machine.
    let [r1, r2, r3] = [ise1, ise2, ise3].map(|ise| ise.isolated_reconfig_latency());
    let clock = tb.catalog.params().core_clock;
    let [ms1, ms2, ms3] = [r1, r2, r3].map(|r| r.as_millis_f64(clock));
    writeln!(
        out,
        "reconfiguration latencies: ISE-1 {ms1:.3} ms, ISE-2 {ms2:.5} ms, ISE-3 {ms3:.3} ms"
    )?;
    writeln!(out)?;
    writeln!(out, "executions |    ISE-1    ISE-2    ISE-3 | best")?;
    writeln!(out, "{}", "-".repeat(56))?;
    let mut regions: Vec<&str> = Vec::new();
    for e in (0..=10_000u64).step_by(250) {
        let p1 = ise1.performance_improvement_factor(e, r1);
        let p2 = ise2.performance_improvement_factor(e, r2);
        let p3 = ise3.performance_improvement_factor(e, r3);
        let best = if p1 >= p2 && p1 >= p3 {
            "ISE-1"
        } else if p2 >= p1 && p2 >= p3 {
            "ISE-2"
        } else {
            "ISE-3"
        };
        if e > 0 && regions.last() != Some(&best) {
            regions.push(best);
        }
        writeln!(out, "{e:>10} | {p1:>8.3} {p2:>8.3} {p3:>8.3} | {best}")?;
    }
    writeln!(out, "{}", "-".repeat(56))?;
    writeln!(
        out,
        "region sequence over increasing executions: {regions:?}"
    )?;
    writeln!(
        out,
        "(paper: ISE-2 region, then ISE-3 region, then ISE-1 region)"
    )?;
    Ok(true)
}
