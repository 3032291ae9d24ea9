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

use mrts_arch::Cycles;
use mrts_bench::{print_header, Testbed, DEFAULT_SEED};
use mrts_ise::{Grain, Ise};

fn main() {
    print_header(
        "Fig. 1",
        "pif of three deblocking-filter ISEs vs. number of executions",
        DEFAULT_SEED,
    );
    let tb = Testbed::new("h264", DEFAULT_SEED);
    let deblock = tb.kernel("deblock");

    // The three case-study ISEs: best full-coverage variant per grain.
    let pick = |grain: Grain| -> &Ise {
        tb.catalog
            .ises_of(deblock)
            .iter()
            .map(|i| tb.catalog.ise(*i).expect("dense ids"))
            // The case study's ISEs place each of the two data paths once
            // (single-copy variants).
            .filter(|i| {
                i.grain() == grain
                    && !i.is_mono_extension()
                    && i.stage_count() == 2
                    && !i.label().contains("@sw") // both data paths covered
            })
            .max_by_key(|i| i.risc_latency() - i.full_latency())
            .expect("variant exists")
    };
    let ise1 = pick(Grain::FineGrained);
    let ise2 = pick(Grain::CoarseGrained);
    let ise3 = pick(Grain::MultiGrained);
    println!("ISE-1 (FG): {}", ise1.label());
    println!("ISE-2 (CG): {}", ise2.label());
    println!("ISE-3 (MG): {}", ise3.label());
    println!();

    // Reconfiguration latency on an otherwise idle machine: the serialized
    // load of all stages on their respective ports.
    let recfg = |ise: &Ise| -> Cycles {
        let mut fg = Cycles::ZERO;
        let mut cg = Cycles::ZERO;
        for s in ise.stages() {
            match s.fabric {
                mrts_arch::FabricKind::FineGrained => fg += s.load_duration,
                mrts_arch::FabricKind::CoarseGrained => cg += s.load_duration,
            }
        }
        fg.max(cg)
    };
    let (r1, r2, r3) = (recfg(ise1), recfg(ise2), recfg(ise3));
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
