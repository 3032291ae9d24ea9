//! The policy interface between the simulator and a run-time system.
//!
//! A [`RuntimePolicy`] is asked two questions:
//!
//! 1. **At every trigger instruction** ([`RuntimePolicy::plan_block`]):
//!    which ISE to select for each forecast kernel, which resident units to
//!    evict, and in which order to stream the new units — the role of the
//!    paper's ISE selector + reconfiguration controller hand-off.
//! 2. **During execution** ([`RuntimePolicy::plan_execution`]): which
//!    implementation a kernel execution should use *right now* — the role
//!    of the Execution Control Unit. The simulator calls this once per
//!    *residency epoch* (between reconfiguration completions the fabric
//!    state — and therefore the answer — cannot change).
//!
//! After a block completes, [`RuntimePolicy::observe_block_end`] feeds the
//! actually observed kernel behaviour back (the hook the Monitoring &
//! Prediction Unit uses).

use mrts_arch::{Cycles, FabricKind, FaultKind, LoadedId, Machine, Resources};
use mrts_ise::{IseCatalog, IseId, KernelId, TriggerBlock, UnitId};
use mrts_workload::KernelActivity;

/// Everything a policy may inspect when a trigger instruction fires.
#[derive(Debug)]
pub struct SelectionContext<'a> {
    /// Current simulation time (core cycles).
    pub now: Cycles,
    /// The compile-time ISE catalogue.
    pub catalog: &'a IseCatalog,
    /// The machine (fabric occupancy, reconfiguration controller).
    pub machine: &'a Machine,
    /// The trigger instructions of the upcoming functional block — possibly
    /// already corrected by the policy's own monitoring unit.
    pub forecast: &'a TriggerBlock,
    /// The catalogue units resident at `now`, captured by the engine once
    /// per trigger.
    pub resident: &'a ResidentSet,
}

impl SelectionContext<'_> {
    /// Whether catalogue unit `u` is resident and usable at `now`: a bit
    /// test on [`SelectionContext::resident`].
    #[must_use]
    pub fn is_resident(&self, u: UnitId) -> bool {
        self.resident.contains(u)
    }
}

/// The units resident at one instant, as a bitset over a catalogue's dense
/// unit ids. The engine holds one per trigger and one per residency epoch,
/// and every policy probe during that trigger or epoch is a bit test on it
/// instead of a scan of the fabric's containers.
///
/// Contract: after [`ResidentSet::capture`] of `machine` at `now` for a
/// catalogue of `units` units, [`ResidentSet::contains`] gives, for every
/// catalogue unit, the same answer as `machine.is_resident(id, now)`. Ids
/// outside the catalogue read as not resident. That is enough: policies are
/// only ever handed catalogue units, and tenants do not share a `Machine`.
/// `capture` is the only mutator, so a captured set stays frozen: a load
/// issued after it, a monoCG install included, is resident from its
/// `ready_at`, where the engine's `settle` loads it.
///
/// Right after `machine.settle(now)` the capture at `now` is exactly the
/// set of loaded containers (a loaded container is resident at any time,
/// DESIGN.md §4.10). The engine captures at every trigger; in an epoch it
/// captures again only when that set changed since its last capture, that
/// is when `settle` reports a newly loaded container or the block's plan
/// evicted one. Otherwise the held capture already answers for the
/// epoch's instant.
#[derive(Debug, Clone, Default)]
pub struct ResidentSet {
    bits: Vec<u64>,
}

impl ResidentSet {
    /// Replaces the set with what `machine` holds at `now` among the unit
    /// ids `0..units`.
    pub fn capture(&mut self, machine: &Machine, now: Cycles, units: usize) {
        self.bits.clear();
        self.bits.resize(units.div_ceil(64), 0);
        let mut add = |id: LoadedId| {
            if id < units as u64 {
                self.bits[(id / 64) as usize] |= 1 << (id % 64);
            }
        };
        machine.fg().for_each_resident_id(now, &mut add);
        machine.cg().for_each_resident_id(now, &mut add);
    }

    /// Whether unit `u` was resident at the captured instant.
    #[must_use]
    pub fn contains(&self, u: UnitId) -> bool {
        let id = u.as_loaded_id();
        self.bits
            .get((id / 64) as usize)
            .is_some_and(|word| word >> (id % 64) & 1 == 1)
    }
}

/// A policy's answer to a trigger instruction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockPlan {
    /// Selected ISE per kernel (`None` = leave the kernel in RISC mode).
    pub selections: Vec<(KernelId, Option<IseId>)>,
    /// Units to evict before loading (free the fabric).
    pub evict: Vec<UnitId>,
    /// Units to stream, in port order. Units already resident or loading
    /// are skipped by the simulator.
    pub load_order: Vec<UnitId>,
    /// Decision-computation cost of the run-time system itself (the
    /// Section 5.4 overhead; added to the block's timeline).
    pub overhead: Cycles,
}

impl BlockPlan {
    /// The selected ISE for `kernel`, if any. If a (malformed) plan lists
    /// a kernel twice, the first entry wins.
    ///
    /// A linear scan: a block forecasts only a few kernels.
    #[must_use]
    pub fn selection_for(&self, kernel: KernelId) -> Option<IseId> {
        self.selections
            .iter()
            .find(|(k, _)| *k == kernel)
            .and_then(|(_, i)| *i)
    }
}

/// Everything a policy may inspect when deciding how to execute a kernel.
#[derive(Debug)]
pub struct ExecContext<'a> {
    /// Current simulation time.
    pub now: Cycles,
    /// The compile-time ISE catalogue.
    pub catalog: &'a IseCatalog,
    /// The machine (fabric occupancy, reconfiguration controller).
    pub machine: &'a Machine,
    /// The catalogue units resident at `now`: the engine's capture, redone
    /// for an epoch whenever the loaded containers changed.
    pub resident: &'a ResidentSet,
}

impl ExecContext<'_> {
    /// Whether catalogue unit `u` is resident and usable right now: a bit
    /// test on [`ExecContext::resident`].
    #[must_use]
    pub fn is_resident(&self, u: UnitId) -> bool {
        self.resident.contains(u)
    }
}

/// How one kernel execution should be carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Use the core's basic instruction set.
    Risc,
    /// Use the kernel's monoCG-Extension (falls back to RISC if it is not
    /// actually resident).
    MonoCg,
    /// Use this ISE with whatever subset of its units is resident (the
    /// simulator derives the resulting full/intermediate/RISC latency from
    /// ground-truth residency).
    Ise(IseId),
}

/// A policy's answer for one residency epoch of one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPlan {
    /// The implementation to use.
    pub mode: ExecMode,
    /// Ask the simulator to start loading the kernel's monoCG-Extension now
    /// (honoured only if a CG-EDPE is free and the extension exists). Like
    /// every context load it is resident from its ticket's `ready_at`: this
    /// epoch still runs with what its [`ResidentSet`] holds, and the engine
    /// ends the epoch at `ready_at`.
    pub install_mono: bool,
}

impl ExecPlan {
    /// Plain RISC-mode execution.
    #[must_use]
    pub fn risc() -> Self {
        ExecPlan {
            mode: ExecMode::Risc,
            install_mono: false,
        }
    }
}

/// A fault the simulator observed and recovered from, reported to the
/// policy through [`RuntimePolicy::notify_fault`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault was detected.
    pub now: Cycles,
    /// What kind of fault it was.
    pub kind: FaultKind,
    /// The fabric involved (for load faults).
    pub fabric: Option<FabricKind>,
    /// The unit whose load failed (for load faults).
    pub unit: Option<UnitId>,
    /// The kernel whose execution was corrupted (for transient exec faults).
    pub kernel: Option<KernelId>,
}

/// A run-time system under evaluation (mRTS or one of the baselines).
pub trait RuntimePolicy {
    /// Diagnostic name used in reports.
    fn name(&self) -> String;

    /// Reacts to a trigger instruction: the selection + reconfiguration
    /// plan for the upcoming functional block.
    fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan;

    /// Chooses the implementation for executions of `kernel` in the current
    /// residency epoch. `selected` is what [`plan_block`] chose for this
    /// kernel (already resolved by the simulator).
    ///
    /// [`plan_block`]: RuntimePolicy::plan_block
    fn plan_execution(
        &mut self,
        kernel: KernelId,
        selected: Option<IseId>,
        ctx: &ExecContext<'_>,
    ) -> ExecPlan;

    /// Receives the actually observed behaviour once the block completed.
    fn observe_block_end(&mut self, block: mrts_ise::BlockId, observed: &[KernelActivity]) {
        let _ = (block, observed);
    }

    /// Called after the simulator detects and recovers from an injected
    /// fault (failed load, lost container, corrupted execution). A lost
    /// container has already left the machine the next trigger plans
    /// against, so no policy in this workspace needs the event; the
    /// default ignores it.
    fn notify_fault(&mut self, event: &FaultEvent) {
        let _ = event;
    }

    /// Informs the policy of an external fabric arbiter's grant (`Some`) or
    /// of exclusive machine ownership (`None`). The multi-tenant runner
    /// never calls it: a tenant's share is its machine, resized to the
    /// grant, so every policy already plans against exactly its share. The
    /// default ignores the slice.
    fn set_resource_slice(&mut self, slice: Option<Resources>) {
        let _ = slice;
    }

    /// Hands the consumed [`BlockPlan`] back to the policy once the engine
    /// has fully applied it. Policies that care about steady-state
    /// allocation hygiene reclaim the plan's `Vec` capacities here and
    /// reuse them for the next block, making the plan-construction path of
    /// the stepping hot loop allocation-free. The default drops the plan.
    fn recycle_plan(&mut self, plan: BlockPlan) {
        let _ = plan;
    }
}

/// The trivial policy: never reconfigures anything, every kernel runs in
/// RISC mode. It is the normalisation baseline of the paper's Fig. 10 and
/// the first bar group of Fig. 8.
#[derive(Debug, Default, Clone)]
pub struct RiscOnlyPolicy;

impl RiscOnlyPolicy {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        RiscOnlyPolicy
    }
}

impl RuntimePolicy for RiscOnlyPolicy {
    fn name(&self) -> String {
        "risc-only".into()
    }

    fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
        BlockPlan {
            selections: ctx.forecast.iter().map(|t| (t.kernel, None)).collect(),
            ..BlockPlan::default()
        }
    }

    fn plan_execution(
        &mut self,
        _kernel: KernelId,
        _selected: Option<IseId>,
        _ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        ExecPlan::risc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_plan_lookup() {
        let plan = BlockPlan {
            selections: vec![(KernelId(0), Some(IseId(3))), (KernelId(1), None)],
            ..BlockPlan::default()
        };
        assert_eq!(plan.selection_for(KernelId(0)), Some(IseId(3)));
        assert_eq!(plan.selection_for(KernelId(1)), None);
        assert_eq!(plan.selection_for(KernelId(9)), None);
        // A (malformed) plan listing a kernel twice: the first entry wins,
        // also when it is the `None` one.
        let plan = BlockPlan {
            selections: vec![
                (KernelId(0), Some(IseId(3))),
                (KernelId(2), None),
                (KernelId(0), Some(IseId(5))),
                (KernelId(2), Some(IseId(4))),
            ],
            ..BlockPlan::default()
        };
        assert_eq!(plan.selection_for(KernelId(0)), Some(IseId(3)));
        assert_eq!(plan.selection_for(KernelId(2)), None);
    }

    #[test]
    fn risc_only_never_selects() {
        let mut p = RiscOnlyPolicy::new();
        assert_eq!(p.name(), "risc-only");
        assert_eq!(
            p.plan_execution(KernelId(0), None, &dummy_exec_ctx()),
            ExecPlan::risc()
        );
    }

    // Minimal machinery to build an ExecContext for the test above.
    fn dummy_exec_ctx() -> ExecContext<'static> {
        use std::sync::OnceLock;
        static CATALOG: OnceLock<IseCatalog> = OnceLock::new();
        static MACHINE: OnceLock<Machine> = OnceLock::new();
        static RESIDENT: OnceLock<ResidentSet> = OnceLock::new();
        let catalog = CATALOG.get_or_init(|| {
            use mrts_ise::datapath::{DataPathGraph, OpKind};
            use mrts_ise::{CatalogBuilder, KernelSpec};
            let mut b = DataPathGraph::builder("g");
            let a = b.input();
            let _ = b.op(OpKind::Abs, &[a]);
            CatalogBuilder::new(mrts_arch::ArchParams::default())
                .kernel(KernelSpec::new("k").data_path(b.finish().unwrap(), 4))
                .build()
                .unwrap()
        });
        let machine = MACHINE.get_or_init(|| {
            Machine::new(
                mrts_arch::ArchParams::default(),
                mrts_arch::Resources::new(1, 1),
            )
            .unwrap()
        });
        ExecContext {
            now: Cycles::ZERO,
            catalog,
            machine,
            resident: RESIDENT.get_or_init(ResidentSet::default),
        }
    }
}
