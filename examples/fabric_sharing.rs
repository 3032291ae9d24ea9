//! Run-time varying fabric: another task claims part of the reconfigurable
//! fabric mid-run — the paper's motivation "(b) the available fine- and
//! coarse-grained reconfigurable fabric (shared among various tasks)".
//!
//! The encoder runs its first 8 frames with the whole machine, then a
//! co-running task grabs one CG-EDPE's context slots and one PRC for the
//! next 8 frames. mRTS reacts at the next trigger instruction: it reselects
//! ISEs that fit the shrunken budget instead of stalling on fabric it no
//! longer owns.
//!
//! ```text
//! cargo run --release --example fabric_sharing
//! ```

use mrts::arch::{ArchParams, Cycles, Machine, Resources};
use mrts::core::Mrts;
use mrts::sim::{RiscOnlyPolicy, Simulator};
use mrts::workload::{Trace, TraceBuilder, VideoModel, WorkloadModel};

/// Artefact ids far outside any catalogue: the foreign task's loads.
const FOREIGN_BASE: u64 = 1 << 60;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let encoder = mrts::ingest::model("h264")?;
    let catalog = encoder
        .application()
        .build_catalog(ArchParams::default(), None)?;
    let trace = TraceBuilder::new(&encoder)
        .video(VideoModel::paper_default(7))
        .build();

    // Split the trace at the frame boundary: 8 frames x 3 blocks each.
    let acts = trace.activations();
    let first_half = Trace::new("frames 0-7", acts[..24].to_vec());
    let second_half = Trace::new("frames 8-15", acts[24..].to_vec());

    let combo = Resources::new(2, 2);
    println!(
        "machine: {combo} (capacity {})",
        Machine::new(ArchParams::default(), combo)?.capacity()
    );
    println!();

    // Scenario A: the whole run with exclusive fabric ownership.
    let machine = Machine::new(ArchParams::default(), combo)?;
    let mut sim = Simulator::new(&catalog, machine);
    let mut mrts = Mrts::new();
    let exclusive_a = sim.run_trace(&first_half, &mut mrts);
    let exclusive_b = sim.run_trace(&second_half, &mut mrts);

    // Scenario B: after frame 7 a co-running task claims 3 CG context
    // slots (one whole EDPE) and 1 PRC.
    let machine = Machine::new(ArchParams::default(), combo)?;
    let mut sim = Simulator::new(&catalog, machine);
    let mut mrts = Mrts::new();
    let shared_a = sim.run_trace(&first_half, &mut mrts);
    let now = sim.now();
    claim_fabric(&mut sim, now, 3, 1);
    let free = sim.machine().free_resources();
    println!("co-running task claimed fabric; free for the encoder: {free}");
    let shared_b = sim.run_trace(&second_half, &mut mrts);

    // Scenario C: RISC-mode reference for scale.
    let machine = Machine::new(ArchParams::default(), combo)?;
    let risc = Simulator::run(&catalog, machine, &trace, &mut RiscOnlyPolicy::new());

    println!();
    println!(
        "{:<34} {:>10} {:>10} {:>10}",
        "scenario", "frames0-7", "frames8-15", "total"
    );
    println!("{}", "-".repeat(68));
    let row = |name: &str, a: f64, b: f64| {
        println!("{name:<34} {a:>9.2}M {b:>9.2}M {:>9.2}M", a + b);
    };
    let m = |s: &mrts::sim::RunStats| s.total_execution_time().as_mcycles();
    row("mRTS, exclusive fabric", m(&exclusive_a), m(&exclusive_b));
    row(
        "mRTS, fabric shared from frame 8",
        m(&shared_a),
        m(&shared_b),
    );
    row(
        "RISC-mode",
        risc.total_execution_time().as_mcycles() / 2.0,
        risc.total_execution_time().as_mcycles() / 2.0,
    );
    println!();
    let degraded = m(&shared_b) / m(&exclusive_b);
    let vs_risc = (risc.total_execution_time().as_mcycles() / 2.0) / m(&shared_b);
    println!(
        "losing 3 CG slots + 1 PRC slows the second half by {:.0}% — yet mRTS still \
         runs it {:.2}x faster than RISC-mode by reselecting ISEs that fit.",
        (degraded - 1.0) * 100.0,
        vs_risc
    );
    Ok(())
}

/// The co-running task preempts `cg` CG context slots and `prc` PRCs: the
/// OS evicts whatever the encoder had there and installs artefacts outside
/// the encoder's catalogue (never evictable by it).
fn claim_fabric(sim: &mut Simulator<'_>, now: Cycles, cg: u16, prc: u16) {
    let machine = sim.machine_mut();
    // Preempt occupied slots if nothing is free.
    while machine.free_resources().cg() < cg {
        let victim = machine.cg().resident_ids(Cycles::MAX)[0];
        machine.evict(victim).expect("victim is resident");
    }
    while machine.free_resources().prc() < prc {
        let victim = machine.fg().resident_ids(Cycles::MAX)[0];
        machine.evict(victim).expect("victim is resident");
    }
    for i in 0..cg {
        machine
            .load_cg(now, FOREIGN_BASE + u64::from(i), 32)
            .expect("a CG slot is free after preemption");
    }
    for i in 0..prc {
        machine
            .load_fg(now, FOREIGN_BASE + 1_000 + u64::from(i), 83_050)
            .expect("a PRC is free after preemption");
    }
}
