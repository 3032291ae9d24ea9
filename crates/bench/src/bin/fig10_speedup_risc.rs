//! Fig. 10 — application speedup of mRTS compared to RISC-mode execution,
//! grouped by resource kind (FG-only / CG-only / multi-grained).
//!
//! Shape to verify: FG-only (PRCs only) combinations reach ≈1.8–2.2×;
//! multi-grained combinations exceed 5× as mRTS starts employing MG-ISEs
//! and the monoCG-Extension; a small mixed machine (1 CG + 1 PRC) beats
//! considerably larger single-fabric machines.

use mrts_arch::Resources;
use mrts_bench::{mean, par, print_header, Testbed, DEFAULT_SEED};

fn main() {
    let threads = par::ThreadConfig::from_args();
    print_header(
        "Fig. 10",
        "mRTS speedup vs RISC-mode per fabric combination, grouped by grain",
        DEFAULT_SEED,
    );
    let tb = Testbed::new("h264", DEFAULT_SEED).expect("builtin app lowers");
    let risc = tb
        .run_policy(Resources::NONE, "risc")
        .expect("listed policy");
    let risc_time = risc.total_execution_time().get() as f64;

    let groups: Vec<(&str, Vec<Resources>)> = vec![
        ("FG-only", (1..=3).map(Resources::prc_only).collect()),
        ("CG-only", (1..=3).map(Resources::cg_only).collect()),
        (
            "multi-grained",
            vec![
                Resources::new(1, 1),
                Resources::new(1, 2),
                Resources::new(2, 1),
                Resources::new(2, 2),
                Resources::new(2, 3),
                Resources::new(3, 2),
                Resources::new(3, 3),
                Resources::new(4, 3),
            ],
        ),
    ];

    // One flat job list across every group; each cell is an independent
    // deterministic mRTS run. Results come back in input order, so the
    // grouped table below prints identical bytes for any `--threads`.
    let all_combos: Vec<Resources> = groups.iter().flat_map(|(_, c)| c.iter().copied()).collect();
    let speedup_of: Vec<f64> = par::sweep(threads, &all_combos, |_, &combo| {
        let stats = tb.run_policy(combo, "mrts").expect("listed policy");
        risc_time / stats.total_execution_time().get() as f64
    });
    let lookup = |combo: Resources| -> f64 {
        let i = all_combos
            .iter()
            .position(|&c| c == combo)
            .expect("headline combos are part of the sweep");
        speedup_of[i]
    };

    let mut group_means = Vec::new();
    let mut cell = 0usize;
    for (name, combos) in &groups {
        println!("--- {name} ---");
        let mut speedups = Vec::new();
        for combo in combos.iter() {
            let s = speedup_of[cell];
            cell += 1;
            speedups.push(s);
            let bar = "#".repeat((s * 10.0) as usize);
            println!(
                "  {:>2} CG {:>2} PRC : {s:>5.2}x  {bar}",
                combo.cg(),
                combo.prc()
            );
        }
        let m = mean(&speedups);
        group_means.push(((*name).to_owned(), m, speedups));
        println!("  group mean: {m:.2}x");
    }
    println!("{}", "-".repeat(64));
    let fg_max = group_means[0].2.iter().copied().fold(0.0, f64::max);
    let mg_max = group_means[2].2.iter().copied().fold(0.0, f64::max);
    println!("FG-only range: up to {fg_max:.2}x (paper: 1.8x - 2.2x)");
    println!("multi-grained: up to {mg_max:.2}x (paper: more than 5x)");

    // The paper's headline comparison: 1 PRC + 1 CG vs 3 PRCs / 3 CGs.
    // The three machines are already cells of the sweep (deterministic:
    // rerunning them would reproduce the same stats bit for bit).
    let small_mg = lookup(Resources::new(1, 1));
    let three_prc = lookup(Resources::prc_only(3));
    let three_cg = lookup(Resources::cg_only(3));
    println!(
        "1 CG + 1 PRC: {small_mg:.2}x vs 3 PRCs: {three_prc:.2}x vs 3 CGs: {three_cg:.2}x \
         (paper: the small mixed machine performs significantly better)"
    );
}
