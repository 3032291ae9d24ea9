//! Fig. 8 — comparison with state-of-the-art approaches.
//!
//! For every fabric combination (CG fabrics 0..=4 × PRCs 0..=3) the
//! harness runs the whole H.264 encoder trace under the four contenders of
//! the paper's Fig. 8 and prints their execution times (million cycles)
//! plus the mRTS speedup lines.
//!
//! Paper shape to verify: mRTS ≈1.3× (max ≈1.8×) faster than the
//! RISPP-like approach, ≈1.78× (max ≈2.3×) than Morpheus/4S, ≈1.45× (max
//! ≈2.2×) than offline-optimal; parity with RISPP at CG = 0 and with
//! Morpheus/4S on single-fabric machines.

use super::{all, geo_mean, max, mcycles, run_policies, Opts};
use crate::{fig8_combos, par, Testbed};
use std::io::{self, Write};

/// The RISC reference and the four contenders, by factory name, in
/// column order.
const POLICIES: [&str; 5] = ["risc", "rispp", "offline", "morpheus", "mrts"];

pub(super) fn body(out: &mut dyn Write, opts: &Opts) -> io::Result<bool> {
    let tb = Testbed::new("h264", opts.seed).map_err(io::Error::other)?;

    writeln!(
        out,
        "   CG  PRC |     RISC    RISPP  Offline  Morph4S     mRTS |  xRISPP   xOffl  xMorph"
    )?;
    writeln!(out, "{}", "-".repeat(96))?;

    // Every (combo × 5 policies) cell is independent and deterministic:
    // fan them out, then print in input order (byte-identical for any
    // `--threads`, see `mrts_bench::par`).
    let combos = fig8_combos();
    let cells = all(par::map_ordered(opts.threads, &combos, |_, &combo| {
        run_policies(&tb, combo, POLICIES).map(|runs| runs.map(|s| s.total_execution_time()))
    }))?;
    // mRTS's speedup over RISPP-like, offline-optimal and Morpheus/4S.
    let mut speedups: [Vec<f64>; 3] = Default::default();
    for (combo, times) in combos.iter().zip(&cells) {
        let &[_, rispp, offline, morpheus, mrts] = times;
        let xs = [rispp, offline, morpheus].map(|t| t.get() as f64 / mrts.get() as f64);
        if !combo.is_empty() {
            speedups.iter_mut().zip(xs).for_each(|(sp, x)| sp.push(x));
        }
        let (cg, prc, times) = (combo.cg(), combo.prc(), times.map(mcycles).join(" "));
        let [x_rispp, x_off, x_morph] = xs;
        writeln!(
            out,
            "{cg:>5} {prc:>4} | {times} | {x_rispp:>7.2} {x_off:>7.2} {x_morph:>7.2}"
        )?;
    }
    writeln!(out, "{}", "-".repeat(96))?;
    for ((label, paper), sp) in [
        ("RISPP-like", "avg 1.3x, max 1.8x"),
        ("offline-opt", "avg 1.45x, max 2.2x"),
        ("Morpheus/4S", "avg 1.78x, max 2.3x"),
    ]
    .iter()
    .zip(&speedups)
    {
        writeln!(
            out,
            "mRTS speedup vs {label:<11}   : avg {:.2}x  max {:.2}x   (paper: {paper})",
            geo_mean(sp),
            max(sp)
        )?;
    }
    Ok(true)
}
