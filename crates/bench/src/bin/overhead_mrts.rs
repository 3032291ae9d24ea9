//! Section 5.4 — implementation overhead of mRTS.
//!
//! Reports, per fabric combination, the average *computed* selection cost
//! per kernel (the paper: *"on average … less than 3000 cycles to select an
//! ISE for each kernel"*) and the fraction of the total execution time
//! charged to the run-time system (*"about 1.9% of an average execution
//! time of a functional block … negligible"*), with and without the
//! overlap-hiding of the selection computation behind the reconfiguration
//! process.

use mrts_arch::Resources;
use mrts_bench::{mean, print_header, Testbed, DEFAULT_SEED};
use mrts_core::{Mrts, MrtsConfig};

fn main() {
    print_header(
        "Section 5.4",
        "mRTS implementation overhead (selection cost, overhead fraction)",
        DEFAULT_SEED,
    );
    let tb = Testbed::new("h264", DEFAULT_SEED);
    let combos = [
        Resources::new(1, 1),
        Resources::new(2, 2),
        Resources::new(2, 3),
        Resources::new(4, 3),
    ];
    println!(
        "{:>5} {:>4} | {:>16} | {:>12} | {:>14}",
        "CG", "PRC", "cycles/kernel", "hidden ovh%", "unhidden ovh%"
    );
    println!("{}", "-".repeat(64));
    let mut per_kernel_all = Vec::new();
    let mut hidden_all = Vec::new();
    for combo in combos {
        let mut mrts = Mrts::new();
        let stats = tb.run(combo, &mut mrts);
        let per_kernel = mrts.avg_selection_cycles_per_kernel();
        let hidden = stats.overhead_fraction() * 100.0;

        let mut unhidden_mrts = Mrts::with_config(MrtsConfig {
            hide_overhead: false,
            ..MrtsConfig::default()
        });
        let unhidden_stats = tb.run(combo, &mut unhidden_mrts);
        let unhidden = unhidden_stats.overhead_fraction() * 100.0;

        per_kernel_all.push(per_kernel);
        hidden_all.push(hidden);
        println!(
            "{:>5} {:>4} | {per_kernel:>16.0} | {hidden:>11.2}% | {unhidden:>13.2}%",
            combo.cg(),
            combo.prc(),
        );
    }
    println!("{}", "-".repeat(64));
    println!(
        "average selection cost: {:.0} cycles per kernel (paper: < 3000)",
        mean(&per_kernel_all)
    );
    println!(
        "average charged overhead: {:.2}% of execution time (paper: ~1.9%)",
        mean(&hidden_all)
    );
}
