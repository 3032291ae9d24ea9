//! Full evaluation scenario: the H.264 encoder trace under all five
//! run-time systems on one multi-grained machine — a single-combination
//! slice of the paper's Fig. 8.
//!
//! ```text
//! cargo run --release --example h264_encoder [cg_edpes] [prcs]
//! ```

use mrts::arch::{ArchParams, Machine, Resources};
use mrts::baselines::{
    LooselyCoupledPolicy, OfflineOptimalPolicy, OnlineOptimalPolicy, ProfiledTotals, RisppPolicy,
};
use mrts::core::Mrts;
use mrts::sim::{RiscOnlyPolicy, RunStats, RuntimePolicy, Simulator};
use mrts::workload::{TraceBuilder, VideoModel, WorkloadModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let cg: u16 = args.next().map_or(Ok(2), |a| a.parse())?;
    let prc: u16 = args.next().map_or(Ok(2), |a| a.parse())?;
    let combo = Resources::new(cg, prc);

    let encoder = mrts::ingest::model("h264")?;
    let catalog = encoder
        .application()
        .build_catalog(ArchParams::default(), None)?;
    let trace = TraceBuilder::new(&encoder)
        .video(VideoModel::paper_default(1))
        .build();
    let totals = ProfiledTotals::from_trace(&trace);
    let capacity = Machine::new(ArchParams::default(), combo)?.capacity();

    println!(
        "machine: {cg} CG-EDPEs ({} context slots) + {prc} PRCs",
        capacity.cg()
    );
    println!("trace  : {} activations, 16 frames", trace.len());
    println!();
    println!(
        "{:<18} {:>12} {:>9} | {:>8} {:>8} {:>10} {:>8}",
        "policy", "Mcycles", "speedup", "RISC", "monoCG", "intermed.", "full-ISE"
    );
    println!("{}", "-".repeat(84));

    let mut risc_time = 0.0f64;
    let mut policies: Vec<Box<dyn RuntimePolicy>> = vec![
        Box::new(RiscOnlyPolicy::new()),
        Box::new(RisppPolicy::new()),
        Box::new(LooselyCoupledPolicy::new(&catalog, capacity, &totals)),
        Box::new(OfflineOptimalPolicy::new(&catalog, capacity, &totals)),
        Box::new(OnlineOptimalPolicy::new()),
        Box::new(Mrts::new()),
    ];
    for policy in &mut policies {
        let machine = Machine::new(ArchParams::default(), combo)?;
        let stats = Simulator::run(&catalog, machine, &trace, policy.as_mut());
        let t = stats.total_execution_time().get() as f64;
        if risc_time == 0.0 {
            risc_time = t;
        }
        print_row(&stats, risc_time / t);
    }
    Ok(())
}

fn print_row(stats: &RunStats, speedup: f64) {
    use mrts::sim::ExecClass;
    let h = stats.class_histogram();
    let get = |c: ExecClass| h.get(&c).copied().unwrap_or(0);
    println!(
        "{:<18} {:>12.3} {:>8.2}x | {:>8} {:>8} {:>10} {:>8}",
        stats.policy,
        stats.total_execution_time().as_mcycles(),
        speedup,
        get(ExecClass::RiscMode),
        get(ExecClass::MonoCg),
        get(ExecClass::IntermediateIse),
        get(ExecClass::FullIse),
    );
}
