//! The Section 2 motivational case study: the H.264 Deblocking Filter and
//! its three Instruction Set Extensions.
//!
//! Reproduces, through the public API, the argument of the paper's Fig. 1
//! and Fig. 2: the same kernel is best served by different ISEs depending
//! on how often it will execute — which only a run-time system can know.
//!
//! ```text
//! cargo run --release --example deblocking_case_study
//! ```

use mrts::arch::{ArchParams, Cycles, FabricKind};
use mrts::ise::{Grain, Ise};
use mrts::workload::{VideoModel, WorkloadModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let encoder = mrts::ingest::model("h264")?;
    let catalog = encoder
        .application()
        .build_catalog(ArchParams::default(), None)?;
    let kernel = catalog
        .kernels()
        .iter()
        .find(|k| k.name() == "deblock")
        .ok_or("the encoder has no deblock kernel")?;
    let deblock = kernel.id();
    println!(
        "kernel '{}': RISC-mode latency {} cycles, {} ISE variants",
        kernel.name(),
        kernel.risc_latency().get(),
        catalog.ises_of(deblock).len()
    );

    // The three case-study ISEs: single-copy variants covering both data
    // paths, one per grain.
    let pick = |grain: Grain| -> &Ise {
        catalog
            .ises_of(deblock)
            .iter()
            .map(|i| catalog.ise(*i).expect("dense ids"))
            .filter(|i| {
                i.grain() == grain
                    && !i.is_mono_extension()
                    && i.stage_count() == 2
                    && !i.label().contains("@sw") // both data paths covered
            })
            .max_by_key(|i| i.risc_latency() - i.full_latency())
            .expect("variant exists")
    };
    let ises = [
        ("ISE-1", pick(Grain::FineGrained)),
        ("ISE-2", pick(Grain::CoarseGrained)),
        ("ISE-3", pick(Grain::MultiGrained)),
    ];
    println!();
    for (name, ise) in &ises {
        let recfg = reconfig_latency(ise);
        println!(
            "{name} {:<24} needs {:<14} exec latency {:>4} cycles, reconfig {:>9.4} ms",
            ise.label(),
            ise.resources().to_string(),
            ise.full_latency().get(),
            recfg.as_millis_f64(catalog.params().core_clock),
        );
    }

    // Fig. 1: the pif crossovers.
    println!();
    println!("performance improvement factor (Eq. 1) by execution count:");
    for e in [100u64, 500, 1_000, 2_500, 5_000, 10_000, 50_000] {
        let pifs: Vec<String> = ises
            .iter()
            .map(|(n, ise)| {
                format!(
                    "{n}={:5.2}",
                    ise.performance_improvement_factor(e, reconfig_latency(ise))
                )
            })
            .collect();
        println!("  e = {e:>6}: {}", pifs.join("  "));
    }

    // Fig. 2: which ISE a run-time system should pick per frame.
    println!();
    println!("per-frame deblocking executions and the performance-wise best ISE:");
    for frame in VideoModel::paper_default(1).frames() {
        let e = encoder.kernel_executions(&frame)[usize::from(deblock.index())];
        let (best, _) = ises
            .iter()
            .map(|(n, ise)| {
                (
                    *n,
                    ise.performance_improvement_factor(e, reconfig_latency(ise)),
                )
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        println!("  frame {:>2}: {e:>5} executions -> {best}", frame.index);
    }
    println!();
    println!(
        "the best ISE changes with the input data — a compile-time selection \
         cannot follow it; mRTS reselects at every trigger instruction."
    );
    Ok(())
}

/// Serialized load time of an ISE's stages per configuration port.
fn reconfig_latency(ise: &Ise) -> Cycles {
    let mut fg = Cycles::ZERO;
    let mut cg = Cycles::ZERO;
    for s in ise.stages() {
        match s.fabric {
            FabricKind::FineGrained => fg += s.load_duration,
            FabricKind::CoarseGrained => cg += s.load_duration,
        }
    }
    fg.max(cg)
}
