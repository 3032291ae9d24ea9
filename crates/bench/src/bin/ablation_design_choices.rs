//! Ablation study — how much each mRTS design choice contributes.
//!
//! Not a paper figure; quantifies the design decisions DESIGN.md calls out
//! by disabling them one at a time on a mid-size multi-grained machine:
//!
//! * **monoCG-Extension** (ECU step c + catalogue candidates),
//! * **MPU error back-propagation** (use raw compile-time forecasts),
//! * **parallel-copy ISE variants** (catalogue without x2 copies).

use mrts_arch::{ArchParams, Machine, Resources};
use mrts_bench::{print_header, Testbed, DEFAULT_SEED};
use mrts_core::{EcuConfig, Mrts, MrtsConfig};
use mrts_sim::Simulator;
use mrts_workload::WorkloadModel;

fn main() {
    print_header(
        "Ablation",
        "contribution of monoCG, MPU feedback and parallel-copy variants",
        DEFAULT_SEED,
    );
    let tb = Testbed::new("h264", DEFAULT_SEED).expect("builtin app lowers");
    let combo = Resources::new(2, 2);

    let full = tb.run(combo, &mut Mrts::new());
    let base = full.total_execution_time().get() as f64;
    println!(
        "full mRTS                      : {:>9.3} Mcycles (baseline)",
        base / 1e6
    );

    let mut no_mono = Mrts::with_config(MrtsConfig {
        ecu: EcuConfig { use_mono_cg: false },
        ..MrtsConfig::default()
    });
    let s = tb.run(combo, &mut no_mono);
    report("without monoCG-Extension", base, &s);

    let mut no_mpu = Mrts::with_config(MrtsConfig {
        use_mpu: false,
        ..MrtsConfig::default()
    });
    let s = tb.run(combo, &mut no_mpu);
    report("without MPU feedback", base, &s);

    // Catalogue ablation: no parallel-copy variants.
    let mut builder =
        mrts_ise::CatalogBuilder::new(ArchParams::default()).without_parallel_copies();
    for spec in tb.model.application().kernel_specs() {
        builder = builder.kernel(spec.clone());
    }
    let catalog = builder.build().expect("catalog builds");
    let machine = Machine::new(ArchParams::default(), combo).expect("valid machine");
    let s = Simulator::run(&catalog, machine, &tb.trace, &mut Mrts::new());
    report("without parallel-copy variants", base, &s);
}

fn report(name: &str, base: f64, stats: &mrts_sim::RunStats) {
    let t = stats.total_execution_time().get() as f64;
    println!(
        "{name:<31}: {:>9.3} Mcycles ({:+.2}% vs full mRTS)",
        t / 1e6,
        (t - base) / base * 100.0
    );
}
