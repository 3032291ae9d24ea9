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

use mrts_bench::{fig8_combos, geo_mean, mcycles, par, print_header, Testbed, DEFAULT_SEED};

fn main() {
    print_header(
        "Fig. 8",
        "execution time of RISPP-like / offline-optimal / Morpheus+4S-like / mRTS",
        DEFAULT_SEED,
    );
    let tb = Testbed::new("h264", DEFAULT_SEED);

    println!(
        "{:>5} {:>4} | {:>8} {:>8} {:>8} {:>8} {:>8} | {:>7} {:>7} {:>7}",
        "CG", "PRC", "RISC", "RISPP", "Offline", "Morph4S", "mRTS", "xRISPP", "xOffl", "xMorph"
    );
    println!("{}", "-".repeat(96));

    let mut sp_rispp = Vec::new();
    let mut sp_off = Vec::new();
    let mut sp_morph = Vec::new();
    // Every (combo × 5 policies) cell is independent and deterministic:
    // fan them out, then print in input order (byte-identical for any
    // `--threads`, see `mrts_bench::par`).
    let combos = fig8_combos();
    let cells = par::sweep(
        par::ThreadConfig::from_env_and_args(),
        &combos,
        |_, &combo| tb.run_fig8_contenders(combo),
    );
    for (combo, (risc, rispp, offline, morpheus, mrts)) in combos.iter().copied().zip(&cells) {
        let t = |s: &mrts_sim::RunStats| s.total_execution_time();
        let x_rispp = t(rispp).get() as f64 / t(mrts).get() as f64;
        let x_off = t(offline).get() as f64 / t(mrts).get() as f64;
        let x_morph = t(morpheus).get() as f64 / t(mrts).get() as f64;
        if !combo.is_empty() {
            sp_rispp.push(x_rispp);
            sp_off.push(x_off);
            sp_morph.push(x_morph);
        }
        println!(
            "{:>5} {:>4} | {} {} {} {} {} | {:>7.2} {:>7.2} {:>7.2}",
            combo.cg(),
            combo.prc(),
            mcycles(t(risc)),
            mcycles(t(rispp)),
            mcycles(t(offline)),
            mcycles(t(morpheus)),
            mcycles(t(mrts)),
            x_rispp,
            x_off,
            x_morph,
        );
    }
    println!("{}", "-".repeat(96));
    println!(
        "mRTS speedup vs RISPP-like    : avg {:.2}x  max {:.2}x   (paper: avg 1.3x, max 1.8x)",
        geo_mean(&sp_rispp),
        sp_rispp.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "mRTS speedup vs offline-opt   : avg {:.2}x  max {:.2}x   (paper: avg 1.45x, max 2.2x)",
        geo_mean(&sp_off),
        sp_off.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "mRTS speedup vs Morpheus/4S   : avg {:.2}x  max {:.2}x   (paper: avg 1.78x, max 2.3x)",
        geo_mean(&sp_morph),
        sp_morph.iter().copied().fold(0.0, f64::max)
    );
}
