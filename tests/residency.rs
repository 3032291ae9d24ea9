//! The engine reads residency once per trigger and once per epoch into a
//! [`ResidentSet`], and every policy probe and the engine's own resolver
//! read that capture instead of scanning the fabric. These tests hold the
//! capture to its contract: for every catalogue unit it answers exactly
//! what `Machine::is_resident` answers at the captured instant, and ids
//! outside the catalogue read as not resident.
//!
//! 1. A property test drives a bare [`Machine`] through random loads,
//!    settles, evictions, re-partitions and lost containers,
//!    and compares the capture with the machine around every `ready_at`.
//! 2. A checking wrapper policy compares both contexts' sets with the
//!    machine at every callback of whole runs, and the wrapped runs must
//!    produce the unwrapped runs' statistics. One of the runs has the ECU
//!    install monoCG-Extensions mid-block, so an epoch's capture is held
//!    to the machine across those installs too.

use std::cell::Cell;
use std::rc::Rc;

use mrts::arch::{ArchParams, Cycles, FaultModel, Machine, Resources};
use mrts::core::{EcuConfig, Mrts, MrtsConfig};
use mrts::ise::{BlockId, IseId, KernelId, UnitId};
use mrts::multitask::{
    run_multitask, MultitaskConfig, MultitaskRunner, SchedulerKind, StepOutcome, TenantSpec,
};
use mrts::sim::{
    BlockPlan, ExecClass, ExecContext, ExecPlan, FaultEvent, MultitaskStats, ResidentSet, RunStats,
    RuntimePolicy, SelectionContext, Simulator,
};
use mrts::workload::{KernelActivity, TraceBuilder, WorkloadModel};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The capture against the machine
// ---------------------------------------------------------------------

/// Catalogue size of the property test: more than one 64-bit word.
const UNITS: u64 = 100;
/// Ids drawn by the property test: the catalogue plus foreign ids above
/// it, which other tasks' artefacts would carry.
const IDS: u64 = 130;

/// Captures `machine` at `now` and checks every id in `0..IDS` (and one
/// far outside) against the machine.
fn assert_capture_exact(set: &mut ResidentSet, machine: &Machine, now: Cycles) {
    set.capture(machine, now, UNITS as usize);
    for id in 0..IDS {
        let expected = id < UNITS && machine.is_resident(id, now);
        assert_eq!(
            set.contains(UnitId(id)),
            expected,
            "unit {id} at {now:?} (catalogue of {UNITS})"
        );
    }
    assert!(!set.contains(UnitId::INVALID));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn capture_matches_machine_after_any_operation_sequence(
        ops in prop::collection::vec((0u8..6, 0u64..IDS, 0u64..400_000, 0u16..4), 1..60),
        fault_seed in any::<u64>(),
    ) {
        // Faults on: CRC retries and permanent container loss happen.
        let faults = FaultModel::with_rates(0.2, 0.0, 0.1, fault_seed);
        let mut m = Machine::with_fault_model(ArchParams::default(), Resources::new(2, 4), faults)
            .expect("valid machine");
        let mut set = ResidentSet::default();
        let mut now = Cycles::ZERO;
        let mut ready = Vec::new();
        for (op, id, step, size) in ops {
            let ticket = match op {
                0 => m.load_fg(now, id, 20_000 + step).ok(),
                1 => m.load_cg(now, id, 8 + size * 16).ok(),
                2 => {
                    m.settle(now);
                    None
                }
                3 => {
                    let _ = m.evict(id);
                    None
                }
                4 => {
                    let _ = m.resize_capacity(Resources::new(size + 1, size * 2));
                    None
                }
                _ => {
                    now += Cycles::new(step);
                    None
                }
            };
            ready.extend(ticket.map(|t| t.ready_at));
            // Around every completion seen so far, and at now.
            assert_capture_exact(&mut set, &m, now);
            for &r in &ready {
                for q in [r - Cycles::new(1), r, r + Cycles::new(1)] {
                    assert_capture_exact(&mut set, &m, q);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The capture inside whole runs
// ---------------------------------------------------------------------

/// Callback counts of a [`Checked`] policy, shared with the test after the
/// policy has been boxed away into a runner.
#[derive(Debug, Default)]
struct Checks {
    blocks: Cell<u64>,
    epochs: Cell<u64>,
    /// Epochs whose plan installs a monoCG-Extension: one is asked for,
    /// it is neither resident nor streaming, and a CG context slot is
    /// free.
    mono_installs: Cell<u64>,
}

/// Forwards every callback to `inner`, first asserting that the context's
/// resident set agrees with the machine on every catalogue unit.
struct Checked {
    inner: Box<dyn RuntimePolicy>,
    checks: Rc<Checks>,
}

impl Checked {
    fn new(inner: Box<dyn RuntimePolicy>) -> (Self, Rc<Checks>) {
        let checks = Rc::new(Checks::default());
        let wrapped = Checked {
            inner,
            checks: Rc::clone(&checks),
        };
        (wrapped, checks)
    }
}

fn assert_agrees(
    catalog: &mrts::ise::IseCatalog,
    machine: &Machine,
    now: Cycles,
    is_resident: impl Fn(UnitId) -> bool,
    what: &str,
) {
    for unit in catalog.units() {
        let u = unit.id();
        assert_eq!(
            is_resident(u),
            machine.is_resident(u.as_loaded_id(), now),
            "{what}: unit {u} at {now:?}"
        );
    }
}

impl RuntimePolicy for Checked {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
        assert_agrees(
            ctx.catalog,
            ctx.machine,
            ctx.now,
            |u| ctx.is_resident(u),
            "plan_block",
        );
        self.checks.blocks.set(self.checks.blocks.get() + 1);
        self.inner.plan_block(ctx)
    }

    fn plan_execution(
        &mut self,
        kernel: KernelId,
        selected: Option<IseId>,
        ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        assert_agrees(
            ctx.catalog,
            ctx.machine,
            ctx.now,
            |u| ctx.is_resident(u),
            "plan_execution",
        );
        self.checks.epochs.set(self.checks.epochs.get() + 1);
        let plan = self.inner.plan_execution(kernel, selected, ctx);
        let mono = ctx.catalog.kernel(kernel).ok().and_then(|k| k.mono_cg());
        if plan.install_mono
            && mono.is_some_and(|m| !ctx.machine.is_resident(m.unit.as_loaded_id(), Cycles::MAX))
            && ctx.machine.cg().free_count() > 0
        {
            let installs = &self.checks.mono_installs;
            installs.set(installs.get() + 1);
        }
        plan
    }

    fn observe_block_end(&mut self, block: BlockId, observed: &[KernelActivity]) {
        self.inner.observe_block_end(block, observed);
    }

    fn notify_fault(&mut self, event: &FaultEvent) {
        self.inner.notify_fault(event);
    }

    fn recycle_plan(&mut self, plan: BlockPlan) {
        self.inner.recycle_plan(plan);
    }
}

/// Runs the H.264 trace solo on `machine`, once with `policy` as is and
/// once wrapped, and checks that both give the same statistics. Returns
/// the statistics and the wrapped run's checks.
fn solo_h264_checked<P: RuntimePolicy + 'static>(
    machine: impl Fn() -> Machine,
    policy: impl Fn() -> P,
) -> (RunStats, Rc<Checks>) {
    let enc = mrts::ingest::model("h264").expect("builtin h264 lowers");
    let catalog = enc
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("kernels are mappable");
    assert!(
        catalog.units().len() > 64,
        "the set must span several words"
    );
    let trace = TraceBuilder::new(&enc).build();
    let plain: RunStats = Simulator::run(&catalog, machine(), &trace, &mut policy());
    let (mut wrapped, checks) = Checked::new(Box::new(policy()));
    let checked = Simulator::run(&catalog, machine(), &trace, &mut wrapped);
    assert_eq!(checks.blocks.get(), trace.activations().len() as u64);
    assert!(checks.epochs.get() > checks.blocks.get());
    assert_eq!(checked, plain);
    (plain, checks)
}

#[test]
fn faulted_h264_sees_exact_residency() {
    let machine = || {
        let fault = FaultModel::with_rates(0.2, 1e-4, 0.01, 7);
        Machine::with_fault_model(ArchParams::default(), Resources::new(2, 16), fault)
            .expect("valid machine")
    };
    solo_h264_checked(machine, Mrts::new);
}

#[test]
fn rispp_like_sees_exact_residency() {
    let machine =
        || Machine::new(ArchParams::default(), Resources::new(4, 3)).expect("valid machine");
    solo_h264_checked(machine, || Mrts::with_config(MrtsConfig::rispp_like()));
}

/// Selects and loads nothing at a trigger and leaves every execution to
/// the paper's ECU. With no ISE selected and a CG context slot free, the
/// ECU's step c runs the kernel in RISC mode and installs its
/// monoCG-Extension, at the kernel's first epoch: mid-block.
struct EcuOnly;

impl RuntimePolicy for EcuOnly {
    fn name(&self) -> String {
        "ecu-only".into()
    }

    fn plan_block(&mut self, _ctx: &SelectionContext<'_>) -> BlockPlan {
        BlockPlan::default()
    }

    fn plan_execution(
        &mut self,
        kernel: KernelId,
        selected: Option<IseId>,
        ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        mrts::core::ecu::plan_execution(kernel, selected, ctx, &EcuConfig::default())
    }
}

#[test]
fn ecu_mono_installs_mid_block_see_exact_residency() {
    let machine =
        || Machine::new(ArchParams::default(), Resources::new(1, 0)).expect("valid machine");
    let (stats, checks) = solo_h264_checked(machine, || EcuOnly);
    // One EDPE holds three contexts: the ECU installs three extensions,
    // which then serve their kernels.
    assert_eq!(checks.mono_installs.get(), 3);
    assert!(stats.class_histogram().contains_key(&ExecClass::MonoCg));
}

/// The three-tenant EDF run of the ladder golden (`timeline_equivalence`),
/// through `MultitaskRunner` with every tenant's policy optionally
/// wrapped; returns the stats and the wrapped runs' checks.
fn ladder_run(wrap: bool) -> (MultitaskStats, Vec<Rc<Checks>>) {
    let fft = mrts_bench::Testbed::new("fft", 1).unwrap();
    let cipher = mrts_bench::Testbed::new("cipher", 2).unwrap();
    let bg = mrts_bench::Testbed::new("fft", 3).unwrap();
    let specs = [
        TenantSpec::new("fft", &fft.catalog, &fft.trace)
            .with_slo("hard:1200000".parse().expect("valid SLO")),
        TenantSpec::new("cipher", &cipher.catalog, &cipher.trace)
            .with_slo("soft:0:12800000".parse().expect("valid SLO")),
        TenantSpec::new("fft", &bg.catalog, &bg.trace),
    ];
    let cfg = MultitaskConfig {
        scheduler: SchedulerKind::EarliestDeadline,
        repartition_min_demand: Cycles::ZERO,
        ..MultitaskConfig::default()
    };
    assert!(cfg.degrade, "the ladder must be on");
    let budget = Resources::new(1, 1);
    if !wrap {
        let stats = run_multitask(ArchParams::default(), budget, &specs, &cfg)
            .expect("ladder run succeeds");
        return (stats, Vec::new());
    }
    let mut runner = MultitaskRunner::new(ArchParams::default(), budget, &specs, &cfg, false)
        .expect("ladder run builds");
    let mut all = Vec::new();
    for t in 0..specs.len() {
        runner.wrap_policy(t, |inner| {
            let (wrapped, checks) = Checked::new(inner);
            all.push(checks);
            Box::new(wrapped)
        });
    }
    // The loop of `run_multitask`.
    loop {
        match runner.step() {
            StepOutcome::Idle => {
                if !runner.force_admit_next() {
                    break;
                }
            }
            StepOutcome::Ran { tenant, finished } => {
                if finished {
                    runner.finish_session(tenant);
                }
                runner.ladder_maybe();
            }
        }
    }
    (runner.into_stats().0, all)
}

#[test]
fn three_tenant_edf_ladder_sees_exact_residency() {
    let (plain, _) = ladder_run(false);
    let (checked, checks) = ladder_run(true);
    assert!(plain.degrade_steps() >= 2, "the ladder must demote");
    for c in &checks {
        assert!(c.blocks.get() > 0 && c.epochs.get() > 0);
    }
    assert_eq!(checked, plain);
}
