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

use mrts_bench::{print_header, Testbed, DEFAULT_SEED};

fn main() {
    print_header(
        "Fig. 1",
        "pif of three deblocking-filter ISEs vs. number of executions",
        DEFAULT_SEED,
    );
    let tb = Testbed::new("h264", DEFAULT_SEED).expect("builtin app lowers");

    // The three case-study ISEs: best full-coverage variant per grain.
    let [ise1, ise2, ise3] = tb.case_study_ises();
    println!("ISE-1 (FG): {}", ise1.label());
    println!("ISE-2 (CG): {}", ise2.label());
    println!("ISE-3 (MG): {}", ise3.label());
    println!();

    // Reconfiguration latency on an otherwise idle machine.
    let (r1, r2, r3) = (
        ise1.isolated_reconfig_latency(),
        ise2.isolated_reconfig_latency(),
        ise3.isolated_reconfig_latency(),
    );
    println!(
        "reconfiguration latencies: ISE-1 {:.3} ms, ISE-2 {:.5} ms, ISE-3 {:.3} ms",
        r1.as_millis_f64(tb.catalog.params().core_clock),
        r2.as_millis_f64(tb.catalog.params().core_clock),
        r3.as_millis_f64(tb.catalog.params().core_clock),
    );
    println!();
    println!(
        "{:>10} | {:>8} {:>8} {:>8} | best",
        "executions", "ISE-1", "ISE-2", "ISE-3"
    );
    println!("{}", "-".repeat(56));
    let mut best_seq = Vec::new();
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
        if e > 0 {
            best_seq.push(best);
        }
        println!("{e:>10} | {p1:>8.3} {p2:>8.3} {p3:>8.3} | {best}");
    }
    println!("{}", "-".repeat(56));
    let regions: Vec<&str> = {
        let mut r = Vec::new();
        for b in &best_seq {
            if r.last() != Some(b) {
                r.push(*b);
            }
        }
        r
    };
    println!("region sequence over increasing executions: {regions:?}");
    println!("(paper: ISE-2 region, then ISE-3 region, then ISE-1 region)");
}
