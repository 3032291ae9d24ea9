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

use mrts_bench::{print_header, Testbed, DEFAULT_SEED};
use mrts_workload::WorkloadModel;

fn main() {
    print_header(
        "Fig. 2",
        "deblocking-filter executions per frame + performance-wise best ISE",
        DEFAULT_SEED,
    );
    let tb = Testbed::new("h264", DEFAULT_SEED).expect("builtin app lowers");
    let deblock = tb.kernel("deblock");
    let frames = mrts_workload::VideoModel::paper_default(DEFAULT_SEED).frames();

    let [ise1, ise2, ise3] = tb.case_study_ises();
    let ises = [("ISE-1", ise1), ("ISE-2", ise2), ("ISE-3", ise3)];

    println!(
        "{:>5} | {:>10} | {:>6} | bar",
        "frame", "executions", "best"
    );
    println!("{}", "-".repeat(72));
    let mut bests = Vec::new();
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
        bests.push(best);
        let bar = "#".repeat((e / 150) as usize);
        println!("{:>5} | {e:>10} | {best:>6} | {bar}", f.index);
    }
    println!("{}", "-".repeat(72));
    let distinct: std::collections::BTreeSet<&&str> = bests.iter().collect();
    println!("distinct best-ISE labels over the sequence: {:?}", distinct);
    println!("(paper: the best ISE changes across frames as the workload varies)");
}
