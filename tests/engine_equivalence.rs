//! The production engine fast-forwards kernel executions in *residency
//! epochs* (between reconfiguration completions the fabric state cannot
//! change). This test proves the optimization is exact: a deliberately
//! naive reference simulator that advances one execution at a time must
//! produce bit-identical statistics for every policy.

use mrts::arch::{ArchParams, Cycles, FabricKind, Machine, Resources};
use mrts::core::Mrts;
use mrts::ise::{IseCatalog, UnitId};
use mrts::sim::{
    BlockPlan, ExecClass, ExecMode, KernelStats, ResidentSet, RiscOnlyPolicy, RunStats,
    RuntimePolicy, SelectionContext, Simulator,
};
use mrts::workload::synthetic::{synthetic_trace, Pattern};
use mrts::workload::{Trace, WorkloadModel};

/// One-execution-at-a-time reference implementation of the engine's
/// semantics (see `mrts-sim/src/engine.rs` for the contract). The policy's
/// contexts carry a residency capture of their own, but the reference's
/// own resolve step asks the machine directly, so it stays an independent
/// oracle for the engine's resolver.
fn naive_run(
    catalog: &IseCatalog,
    mut machine: Machine,
    trace: &Trace,
    policy: &mut dyn RuntimePolicy,
) -> RunStats {
    let mut stats = RunStats {
        policy: policy.name(),
        ..RunStats::default()
    };
    let units = catalog.units().len();
    let mut resident = ResidentSet::default();
    let mut now = Cycles::ZERO;
    for activation in trace.activations() {
        let t0 = now;
        machine.settle(t0);
        resident.capture(&machine, t0, units);
        let plan: BlockPlan = policy.plan_block(&SelectionContext {
            now: t0,
            catalog,
            machine: &machine,
            forecast: &activation.forecast,
            resident: &resident,
        });
        for &u in &plan.evict {
            let _ = machine.evict(u.as_loaded_id());
        }
        for &u in &plan.load_order {
            if machine.is_resident(u.as_loaded_id(), Cycles::MAX) {
                continue;
            }
            let unit = catalog.unit(u);
            let r = match unit.fabric() {
                FabricKind::FineGrained => {
                    machine.load_fg(t0, u.as_loaded_id(), unit.bitstream_bytes())
                }
                FabricKind::CoarseGrained => {
                    machine.load_cg(t0, u.as_loaded_id(), unit.cg_instrs())
                }
            };
            if r.is_err() {
                stats.rejected_loads += 1;
            }
        }

        let mut makespan = Cycles::ZERO;
        let mut busy = Cycles::ZERO;
        for activity in &activation.actual {
            let kernel = catalog.kernel(activity.kernel).expect("known kernel");
            let risc = kernel.risc_latency();
            let selected = plan.selection_for(activity.kernel);
            let mut t = t0 + plan.overhead + activity.first_delay;
            let kstats: &mut KernelStats = stats.kernels.entry(activity.kernel).or_default();
            for _ in 0..activity.executions {
                machine.settle(t);
                resident.capture(&machine, t, units);
                let eplan = policy.plan_execution(
                    activity.kernel,
                    selected,
                    &mrts::sim::ExecContext {
                        now: t,
                        catalog,
                        machine: &machine,
                        resident: &resident,
                    },
                );
                if eplan.install_mono {
                    if let Some(mono) = kernel.mono_cg() {
                        if !machine.is_resident(mono.unit.as_loaded_id(), Cycles::MAX) {
                            let _ = machine.load_cg(t, mono.unit.as_loaded_id(), mono.instrs);
                        }
                    }
                }
                let (class, latency) = match eplan.mode {
                    ExecMode::Risc => (ExecClass::RiscMode, risc),
                    ExecMode::MonoCg => match kernel.mono_cg() {
                        Some(m) if machine.is_resident(m.unit.as_loaded_id(), t) => {
                            (ExecClass::MonoCg, m.latency)
                        }
                        _ => (ExecClass::RiscMode, risc),
                    },
                    ExecMode::Ise(id) => {
                        let ise = catalog.ise(id).expect("known ise");
                        let resident = |u: UnitId| machine.is_resident(u.as_loaded_id(), t);
                        let latency = ise.latency_with(resident);
                        if latency == risc {
                            (ExecClass::RiscMode, latency)
                        } else if ise.is_fully_resident(resident) {
                            (ExecClass::FullIse, latency)
                        } else {
                            (ExecClass::IntermediateIse, latency)
                        }
                    }
                };
                kstats.record(class, 1, latency);
                busy += latency;
                t += latency + activity.gap;
            }
            let finish = t - activity.gap;
            makespan = makespan.max(finish - t0);
        }
        makespan = makespan.max(plan.overhead);
        stats.blocks.push(mrts::sim::BlockStats {
            block: activation.block,
            frame: activation.frame,
            busy_cycles: busy,
            makespan,
            selection_overhead: plan.overhead,
        });
        policy.observe_block_end(activation.block, &activation.actual);
        now = t0 + makespan;
        machine.settle(now);
    }
    stats
}

fn setup(pattern: Pattern, rounds: usize) -> (IseCatalog, Trace) {
    let toy = mrts::ingest::model("toy").expect("builtin toy lowers");
    let catalog = toy
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("toy kernels are mappable");
    let trace = synthetic_trace(&toy, &[pattern], rounds);
    (catalog, trace)
}

fn machine(cg: u16, prc: u16) -> Machine {
    Machine::new(ArchParams::default(), Resources::new(cg, prc)).expect("valid machine")
}

#[test]
fn epoch_batching_is_exact_for_risc_only() {
    let (catalog, trace) = setup(Pattern::Constant(700), 4);
    let fast = Simulator::run(&catalog, machine(1, 1), &trace, &mut RiscOnlyPolicy::new());
    let slow = naive_run(&catalog, machine(1, 1), &trace, &mut RiscOnlyPolicy::new());
    assert_eq!(fast, slow);
}

#[test]
fn epoch_batching_is_exact_for_mrts_across_machines_and_patterns() {
    let patterns = [
        Pattern::Constant(900),
        Pattern::Step {
            low: 50,
            high: 3_000,
            at: 2,
        },
        Pattern::Burst {
            low: 120,
            high: 2_400,
            period: 2,
        },
        Pattern::Ramp {
            from: 100,
            to: 2_000,
        },
    ];
    for pattern in patterns {
        let (catalog, trace) = setup(pattern, 5);
        for (cg, prc) in [(0u16, 1u16), (1, 0), (1, 1), (2, 2)] {
            let fast = Simulator::run(&catalog, machine(cg, prc), &trace, &mut Mrts::new());
            let slow = naive_run(&catalog, machine(cg, prc), &trace, &mut Mrts::new());
            assert_eq!(
                fast, slow,
                "engine divergence: pattern {pattern:?}, machine {cg} CG / {prc} PRC"
            );
        }
    }
}
