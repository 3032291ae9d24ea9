//! Ablation study — how much each mRTS design choice contributes.
//!
//! Not a paper figure; quantifies the design decisions DESIGN.md calls out
//! by disabling them one at a time on a mid-size multi-grained machine:
//!
//! * **monoCG-Extension** (ECU step c + catalogue candidates),
//! * **MPU error back-propagation** (use raw compile-time forecasts),
//! * **parallel-copy ISE variants** (catalogue without x2 copies).

use super::{Opts, HEADLINE};
use crate::Testbed;
use mrts_arch::ArchParams;
use mrts_core::{EcuConfig, Mrts, MrtsConfig};
use mrts_ise::CatalogBuilder;
use mrts_sim::RunStats;
use mrts_workload::WorkloadModel;
use std::io::{self, Write};

pub(super) fn body(out: &mut dyn Write, opts: &Opts) -> io::Result<bool> {
    let mut tb = Testbed::new("h264", opts.seed).map_err(io::Error::other)?;

    let full = tb.run_policy(HEADLINE, "mrts").map_err(io::Error::other)?;
    let base = full.total_execution_time().get() as f64;
    writeln!(
        out,
        "full mRTS                      : {:>9.3} Mcycles (baseline)",
        base / 1e6
    )?;

    let mut no_mono = Mrts::with_config(MrtsConfig {
        ecu: EcuConfig { use_mono_cg: false },
        ..MrtsConfig::default()
    });
    let s = tb.run(HEADLINE, &mut no_mono).map_err(io::Error::other)?;
    report(out, "without monoCG-Extension", base, &s)?;

    let mut no_mpu = Mrts::with_config(MrtsConfig {
        use_mpu: false,
        ..MrtsConfig::default()
    });
    let s = tb.run(HEADLINE, &mut no_mpu).map_err(io::Error::other)?;
    report(out, "without MPU feedback", base, &s)?;

    // Catalogue ablation: no parallel-copy variants.
    let mut builder = CatalogBuilder::new(ArchParams::default()).without_parallel_copies();
    for spec in tb.model.application().kernel_specs() {
        builder = builder.kernel(spec.clone());
    }
    tb.catalog = builder.build().map_err(io::Error::other)?;
    let s = tb
        .run(HEADLINE, &mut Mrts::new())
        .map_err(io::Error::other)?;
    report(out, "without parallel-copy variants", base, &s)?;
    Ok(true)
}

fn report(out: &mut dyn Write, name: &str, base: f64, stats: &RunStats) -> io::Result<()> {
    let t = stats.total_execution_time().get() as f64;
    writeln!(
        out,
        "{name:<31}: {:>9.3} Mcycles ({:+.2}% vs full mRTS)",
        t / 1e6,
        (t - base) / base * 100.0
    )
}
