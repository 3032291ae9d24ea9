//! Robustness of the simulation engine against misbehaving policies: wrong
//! ISE ids, foreign kernels, monoCG requests without an extension,
//! over-subscribed load plans. The engine must degrade every bad decision
//! to RISC-mode (or count a rejected load) — never panic, never corrupt
//! the statistics — plus a longer soak run for time monotonicity and the
//! fault-injection guarantees: exhausted retry budgets degrade to RISC,
//! permanent container faults never lose executions, and a zero fault rate
//! is bit-identical to the fault-free engine.

use mrts::arch::{ArchParams, Cycles, FaultModel, Machine, Resources};
use mrts::core::Mrts;
use mrts::ise::{IseId, KernelId, UnitId};
use mrts::sim::{
    BlockPlan, ExecClass, ExecContext, ExecMode, ExecPlan, RuntimePolicy, SelectionContext,
    Simulator, LOAD_RETRY_BUDGET,
};
use mrts::workload::synthetic::{synthetic_trace, Pattern};
use mrts::workload::{Scene, TraceBuilder, VideoModel, WorkloadModel};

fn setup() -> (mrts::ise::IseCatalog, mrts::workload::Trace) {
    let toy = mrts::ingest::model("toy").expect("builtin toy lowers");
    let catalog = toy
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("toy kernels are mappable");
    let trace = synthetic_trace(&toy, &[Pattern::Constant(300)], 3);
    (catalog, trace)
}

fn machine() -> Machine {
    Machine::new(ArchParams::default(), Resources::new(1, 1)).expect("valid machine")
}

/// A policy whose answers are deliberately wrong.
struct Liar {
    mode: ExecMode,
    load_garbage: bool,
}

impl RuntimePolicy for Liar {
    fn name(&self) -> String {
        "liar".into()
    }

    fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
        let load_order = if self.load_garbage {
            // Ask for far more units than the machine has slots: the
            // engine must count rejections and continue.
            ctx.catalog.units().iter().map(|u| u.id()).collect()
        } else {
            Vec::new()
        };
        BlockPlan {
            selections: ctx.forecast.iter().map(|t| (t.kernel, None)).collect(),
            evict: vec![UnitId::INVALID], // nonexistent: must be ignored
            load_order,
            overhead: Cycles::ZERO,
        }
    }

    fn plan_execution(
        &mut self,
        _kernel: KernelId,
        _selected: Option<IseId>,
        _ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        ExecPlan {
            mode: self.mode,
            install_mono: true, // spam mono requests regardless
        }
    }
}

#[test]
fn wrong_ise_id_degrades_to_risc() {
    let (catalog, trace) = setup();
    let stats = Simulator::run(
        &catalog,
        machine(),
        &trace,
        &mut Liar {
            mode: ExecMode::Ise(IseId(u32::MAX)),
            load_garbage: false,
        },
    );
    assert_eq!(stats.total_executions(), 900);
    // An unknown ISE can never accelerate; mono may still bridge (the
    // spammed install_mono is legitimate ECU behaviour).
    let h = stats.class_histogram();
    assert_eq!(h.get(&ExecClass::FullIse), None);
    assert_eq!(h.get(&ExecClass::IntermediateIse), None);
}

#[test]
fn mono_mode_without_resident_mono_degrades_to_risc() {
    let (catalog, trace) = setup();
    // Machine without CG fabric: install_mono can never succeed.
    let machine = Machine::new(ArchParams::default(), Resources::new(0, 1)).expect("valid");
    let stats = Simulator::run(
        &catalog,
        machine,
        &trace,
        &mut Liar {
            mode: ExecMode::MonoCg,
            load_garbage: false,
        },
    );
    let h = stats.class_histogram();
    assert_eq!(h.get(&ExecClass::RiscMode), Some(&900));
}

#[test]
fn oversubscribed_load_plan_counts_rejections() {
    let (catalog, trace) = setup();
    let stats = Simulator::run(
        &catalog,
        machine(),
        &trace,
        &mut Liar {
            mode: ExecMode::Risc,
            load_garbage: true,
        },
    );
    assert!(stats.rejected_loads > 0);
    assert_eq!(stats.total_executions(), 900);
}

/// Two runs with the same trace, machine configuration and fault seed must
/// produce byte-identical serialized statistics — the whole simulation is a
/// pure function of its seeds.
#[test]
fn same_seed_runs_are_byte_identical() {
    let (catalog, trace) = setup();
    let run = || {
        let machine = Machine::with_fault_model(
            ArchParams::default(),
            Resources::new(1, 1),
            FaultModel::new(0.01, 7),
        )
        .expect("valid machine");
        let stats = Simulator::run(&catalog, machine, &trace, &mut Mrts::new());
        serde_json::to_string(&stats).expect("stats serialize")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same-seed faulted runs diverged");

    // The fault-free engine is equally deterministic.
    let risc = || {
        let stats = Simulator::run(
            &catalog,
            machine(),
            &trace,
            &mut mrts::sim::RiscOnlyPolicy::new(),
        );
        serde_json::to_string(&stats).expect("stats serialize")
    };
    assert_eq!(risc(), risc());
}

/// With a 100% CRC fault rate every load attempt fails, the engine burns its
/// whole retry budget, and every execution must still complete — in
/// RISC-mode, since nothing can ever become resident.
#[test]
fn exhausted_retry_budget_degrades_to_risc() {
    let (catalog, trace) = setup();
    let machine = Machine::with_fault_model(
        ArchParams::default(),
        Resources::new(1, 1),
        FaultModel::with_rates(1.0, 0.0, 0.0, 3),
    )
    .expect("valid machine");
    let stats = Simulator::run(&catalog, machine, &trace, &mut Mrts::new());
    assert_eq!(stats.total_executions(), 900, "executions lost");
    assert!(stats.failed_loads > 0, "no load ever faulted");
    assert!(
        stats.retried_loads >= u64::from(LOAD_RETRY_BUDGET),
        "retry budget never exercised: {} retries",
        stats.retried_loads
    );
    assert!(stats.recovery_cycles > Cycles::ZERO);
    // Nothing ever became resident, so no accelerated class can appear.
    let h = stats.class_histogram();
    assert_eq!(h.get(&ExecClass::RiscMode), Some(&900));
    assert_eq!(h.len(), 1);
}

/// Permanent container faults mid-run shrink the fabric but must never
/// corrupt the execution count: every traced execution still happens, at
/// worst in RISC-mode.
#[test]
fn permanent_fault_mid_run_preserves_total_executions() {
    let (catalog, trace) = setup();
    for seed in [1u64, 2, 3, 4, 5] {
        let machine = Machine::with_fault_model(
            ArchParams::default(),
            Resources::new(2, 2),
            FaultModel::with_rates(0.2, 0.0, 0.2, seed),
        )
        .expect("valid machine");
        let stats = Simulator::run(&catalog, machine, &trace, &mut Mrts::new());
        assert_eq!(
            stats.total_executions(),
            900,
            "executions lost at fault seed {seed}"
        );
    }
    // At least one of those seeds must actually have killed a container,
    // otherwise the loop above proved nothing.
    let killed: u64 = (1u64..=5)
        .map(|seed| {
            let machine = Machine::with_fault_model(
                ArchParams::default(),
                Resources::new(2, 2),
                FaultModel::with_rates(0.2, 0.0, 0.2, seed),
            )
            .expect("valid machine");
            Simulator::run(&catalog, machine, &trace, &mut Mrts::new()).blacklisted_containers
        })
        .sum();
    assert!(killed > 0, "no permanent fault fired across five seeds");
}

/// A fault model armed with rate 0.0 must be bit-identical to no fault
/// model at all — the zero-cost-default guarantee.
#[test]
fn zero_fault_rate_reproduces_fault_free_stats() {
    let (catalog, trace) = setup();
    let without = Simulator::run(&catalog, machine(), &trace, &mut Mrts::new());
    let armed_machine = Machine::with_fault_model(
        ArchParams::default(),
        Resources::new(1, 1),
        FaultModel::new(0.0, 12345),
    )
    .expect("valid machine");
    let with = Simulator::run(&catalog, armed_machine, &trace, &mut Mrts::new());
    assert_eq!(
        serde_json::to_string(&without).expect("serialize"),
        serde_json::to_string(&with).expect("serialize"),
        "armed-but-zero fault model changed behaviour"
    );
    assert_eq!(with.failed_loads, 0);
    assert_eq!(with.degraded_executions, 0);
}

#[test]
fn soak_long_video_is_stable_and_monotonic() {
    // 64 frames of alternating scenes through the full encoder pipeline.
    let encoder = mrts::ingest::model("h264").expect("builtin h264 lowers");
    let catalog = encoder
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("encoder kernels are mappable");
    let video = VideoModel::builder(22, 18)
        .scene(Scene::new(16, 0.1, 0.3))
        .scene(Scene::new(16, 0.9, 0.8))
        .scene(Scene::new(16, 0.4, 0.2))
        .scene(Scene::new(16, 0.7, 0.9))
        .seed(99)
        .build();
    let trace = TraceBuilder::new(&encoder).video(video).build();
    assert_eq!(trace.len(), 64 * 3);

    let machine = Machine::new(ArchParams::default(), Resources::new(2, 2)).expect("valid");
    let mut sim = Simulator::new(&catalog, machine);
    let stats = sim.run_trace(&trace, &mut Mrts::new());
    assert_eq!(stats.blocks.len(), 192);
    assert_eq!(stats.rejected_loads, 0);
    // Block timings are sane: every makespan covers its busy share of the
    // slowest kernel and the simulation clock moved far forward.
    for b in &stats.blocks {
        assert!(b.makespan >= b.selection_overhead);
    }
    assert!(
        sim.now().get() > 100_000_000,
        "clock advanced: {}",
        sim.now()
    );
    // Executions match the trace exactly.
    let expected: u64 = trace
        .activations()
        .iter()
        .flat_map(|a| a.actual.iter().map(|k| k.executions))
        .sum();
    assert_eq!(stats.total_executions(), expected);
}
