//! Multi-tasking: three applications — the H.264 encoder, an FFT pipeline
//! and a stream cipher — share one multi-grained machine. Each tenant runs
//! its own mRTS on the fabric slice the arbiter grants it, and the core
//! switches between tenants at block boundaries, so every trigger
//! instruction finds fabric availability shaped by the *other* tasks:
//! exactly the run-time varying availability the paper's Section 1
//! motivates ("the available fine- and coarse-grained reconfigurable
//! fabric (shared among various tasks)").
//!
//! ```text
//! cargo run --release --example multi_tasking
//! ```

use std::collections::BTreeMap;

use mrts::arch::{ArchParams, Resources};
use mrts::multitask::{run_multitask_with_events, MultitaskConfig, TenantSpec};
use mrts::sim::{SimEvent, VecSink};
use mrts::workload::{TraceBuilder, VideoModel, WorkloadModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One catalogue and one trace per application, each over the paper's
    // three-scene video.
    let mut apps = Vec::new();
    for name in ["h264", "fft", "cipher"] {
        let model = mrts::ingest::model(name)?;
        let catalog = model
            .application()
            .build_catalog(ArchParams::default(), None)?;
        let trace = TraceBuilder::new(&model)
            .video(VideoModel::paper_default(3))
            .build();
        apps.push((name, catalog, trace));
    }
    let specs: Vec<TenantSpec<'_>> = apps
        .iter()
        .map(|(name, catalog, trace)| TenantSpec::new(*name, catalog, trace))
        .collect();

    let combo = Resources::new(2, 2);
    let mut sink = VecSink::new();
    let stats = run_multitask_with_events(
        ArchParams::default(),
        combo,
        &specs,
        &MultitaskConfig::default(),
        &mut sink,
    )?;
    let events = sink.take();
    println!("machine {combo}, one mRTS per tenant:");
    print!("{stats}");

    // How much fabric churn does sharing cause, and which tenants' kernels
    // kept changing how they execute? Events carry their tenant's index.
    let mut loads = BTreeMap::new();
    let mut changes = BTreeMap::new();
    let mut last = BTreeMap::new();
    for (tenant, event) in &events {
        if matches!(event, SimEvent::LoadIssued { .. }) {
            *loads.entry(*tenant).or_insert(0usize) += 1;
        }
        if let SimEvent::ExecBatch { kernel, class, .. } = event {
            let key = (*tenant, *kernel);
            if last.insert(key, *class).is_some_and(|prev| prev != *class) {
                *changes.entry(key).or_insert(0usize) += 1;
            }
        }
    }
    println!();
    println!("units streamed per tenant:");
    for (tenant, n) in &loads {
        println!("  {:<8} {n} loads", specs[*tenant as usize].name);
    }
    println!();
    println!("execution-class changes per kernel (adaptivity under fabric sharing):");
    for ((tenant, kernel), n) in changes {
        let spec = &specs[tenant as usize];
        let kernel = spec.catalog.kernel(kernel)?.name();
        println!("  {:<8} {kernel:<22} {n} changes", spec.name);
    }
    Ok(())
}
