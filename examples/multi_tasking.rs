//! Multi-tasking: three applications — the H.264 encoder, an FFT pipeline
//! and a stream cipher — share one multi-grained machine. Their functional
//! blocks interleave, so every trigger instruction finds fabric occupied by
//! the *other* tasks' ISEs: exactly the run-time varying availability the
//! paper's Section 1 motivates ("the available fine- and coarse-grained
//! reconfigurable fabric (shared among various tasks)").
//!
//! ```text
//! cargo run --release --example multi_tasking
//! ```

use std::collections::BTreeMap;

use mrts::arch::{ArchParams, Machine, Resources};
use mrts::core::Mrts;
use mrts::sim::{RiscOnlyPolicy, SimEvent, Simulator, VecSink};
use mrts::workload::{MergedWorkload, TraceBuilder, VideoModel, WorkloadModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let encoder = mrts::ingest::model("h264")?;
    let fft = mrts::ingest::model("fft")?;
    let cipher = mrts::ingest::model("cipher")?;
    let merged = MergedWorkload::new("soc_multitask", vec![&encoder, &fft, &cipher]);
    println!(
        "merged workload: {} kernels in {} interleaved functional blocks",
        merged.application().kernel_count(),
        merged.application().blocks().len()
    );

    let catalog = merged
        .application()
        .build_catalog(ArchParams::default(), None)?;
    let trace = TraceBuilder::new(&merged)
        .video(VideoModel::paper_default(3))
        .build();

    let combo = Resources::new(2, 2);
    let machine = || Machine::new(ArchParams::default(), combo);
    let risc = Simulator::run(&catalog, machine()?, &trace, &mut RiscOnlyPolicy::new());
    // Record the mRTS run's event spine.
    let sink = VecSink::new();
    let mut sim = Simulator::new(&catalog, machine()?);
    sim.attach_events(0, Box::new(sink.clone()));
    let mrts = sim.run_trace(&trace, &mut Mrts::new());
    sim.finish_events();
    let events = sink.take();

    println!();
    println!(
        "machine {combo}: RISC {:.2} Mcycles -> mRTS {:.2} Mcycles ({:.2}x)",
        risc.total_execution_time().as_mcycles(),
        mrts.total_execution_time().as_mcycles(),
        mrts.speedup_vs(&risc)
    );

    // How much fabric churn does task interleaving cause?
    let count = |pred: fn(&SimEvent) -> bool| events.iter().filter(|(_, e)| pred(e)).count();
    let triggers = count(|e| matches!(e, SimEvent::BlockStart { .. }));
    let loads = count(|e| matches!(e, SimEvent::LoadIssued { .. }));
    println!(
        "over {triggers} trigger instructions mRTS streamed {loads} units \
         (tasks steal fabric from each other at every block boundary)"
    );

    // Which tasks' kernels kept changing how they execute?
    let mut changes = BTreeMap::new();
    let mut last = BTreeMap::new();
    for (_, event) in &events {
        if let SimEvent::ExecBatch { kernel, class, .. } = event {
            if last
                .insert(*kernel, *class)
                .is_some_and(|prev| prev != *class)
            {
                *changes.entry(*kernel).or_insert(0usize) += 1;
            }
        }
    }
    println!();
    println!("execution-class changes per kernel (adaptivity under fabric sharing):");
    for (kernel, n) in changes {
        println!("  {:<22} {n} changes", catalog.kernel(kernel)?.name());
    }
    Ok(())
}
