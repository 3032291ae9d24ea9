//! The static (compile-time) selection baselines.
//!
//! * [`OfflineOptimalPolicy`] — the paper's *offline (optimal) selection
//!   for tightly coupled multi-grained fabrics*: the best possible static
//!   one-ISE-per-kernel assignment given the whole run's (profiled) kernel
//!   totals and the full machine budget, MG-ISEs allowed. It cannot react
//!   to run-time variation and has no monoCG-Extension — the two effects
//!   behind mRTS's average 1.45× advantage in Fig. 8.
//! * [`LooselyCoupledPolicy`] — the Morpheus/4S-like approach: the same
//!   static optimal selection but restricted to single-fabric (FG-only or
//!   CG-only) ISEs, because in a loosely coupled architecture *"the
//!   communication possibilities between the CG- and FG-fabric are
//!   limited … no multi-grained ISE can be used within a functional
//!   block"*. Execution is all-or-nothing: a kernel either runs on its
//!   fully configured accelerator or in RISC mode (no intermediate ISEs).

use crate::common::ProfiledTotals;
use crate::optimal::dp_optimal_selection;
use mrts_arch::{Cycles, Machine, ReconfigurationController, Resources};
use mrts_ise::{Grain, IseCatalog, IseId, KernelId, TriggerBlock, TriggerInstruction};
use mrts_sim::{BlockPlan, ExecContext, ExecMode, ExecPlan, RuntimePolicy, SelectionContext};
use std::collections::BTreeMap;

/// How a static policy executes kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecStyle {
    /// Tightly coupled: partial configurations (intermediate ISEs) may be
    /// used as they arrive.
    Tight,
    /// Loosely coupled: only the fully configured accelerator or RISC.
    Loose,
}

/// Common machinery of the two static policies.
#[derive(Debug, Clone)]
struct StaticSelection {
    /// The fixed per-kernel assignment.
    chosen: BTreeMap<KernelId, IseId>,
    style: ExecStyle,
}

impl StaticSelection {
    fn compute(
        catalog: &IseCatalog,
        budget: Resources,
        totals: &ProfiledTotals,
        filter: &dyn Fn(&mrts_ise::Ise) -> bool,
        style: ExecStyle,
    ) -> Self {
        // One synthetic trigger block holding every kernel of the
        // application with its whole-run totals: the "extensive evaluation
        // of the application's processing behaviour" the paper ascribes to
        // compile-time schemes.
        let triggers: Vec<TriggerInstruction> = catalog
            .kernels()
            .iter()
            .map(|k| {
                TriggerInstruction::new(
                    k.id(),
                    totals.executions_of(k.id()).max(1),
                    Cycles::new(1_000),
                    totals.gap_of(k.id()),
                )
            })
            .collect();
        let forecast = TriggerBlock::new(mrts_ise::BlockId(0), triggers);
        let rc = ReconfigurationController::new();
        let selection = dp_optimal_selection(
            catalog,
            &forecast,
            budget,
            &|_| false,
            &rc,
            Cycles::ZERO,
            filter,
        );
        let chosen = selection
            .choices
            .into_iter()
            .filter_map(|(k, i)| i.map(|i| (k, i)))
            .collect();
        StaticSelection { chosen, style }
    }

    fn plan_block(&self, ctx: &SelectionContext<'_>) -> BlockPlan {
        let now = ctx.now;
        let machine: &Machine = ctx.machine;
        let mut selections = Vec::new();
        let mut load_order = Vec::new();
        for t in ctx.forecast.iter() {
            let sel = self.chosen.get(&t.kernel).copied();
            selections.push((t.kernel, sel));
            if let Some(id) = sel {
                let ise = ctx.catalog.ise(id).expect("static choice is valid");
                for s in ise.stages() {
                    let present = machine.is_resident(s.unit.as_loaded_id(), Cycles::MAX);
                    let pending = machine
                        .controller()
                        .pending_ready_time(s.unit.as_loaded_id())
                        .is_some();
                    if !present && !pending {
                        load_order.push(s.unit);
                    }
                }
            }
        }
        let _ = now;
        BlockPlan {
            selections,
            evict: Vec::new(), // the static assignment fits by construction
            load_order,
            prefetch: Vec::new(),
            overhead: Cycles::ZERO, // decisions were made at compile time
        }
    }

    fn plan_execution(&self, selected: Option<IseId>, ctx: &ExecContext<'_>) -> ExecPlan {
        let Some(id) = selected else {
            return ExecPlan::risc();
        };
        match self.style {
            ExecStyle::Tight => ExecPlan {
                mode: ExecMode::Ise(id),
                install_mono: false,
            },
            ExecStyle::Loose => {
                let Ok(ise) = ctx.catalog.ise(id) else {
                    return ExecPlan::risc();
                };
                if ise.is_fully_resident(|u| ctx.is_resident(u)) {
                    ExecPlan {
                        mode: ExecMode::Ise(id),
                        install_mono: false,
                    }
                } else {
                    ExecPlan::risc()
                }
            }
        }
    }
}

/// The offline-optimal baseline (tightly coupled, MG-ISEs allowed).
#[derive(Debug, Clone)]
pub struct OfflineOptimalPolicy {
    inner: StaticSelection,
}

impl OfflineOptimalPolicy {
    /// Computes the optimal static assignment for `budget` given the
    /// whole-run profile.
    #[must_use]
    pub fn new(catalog: &IseCatalog, budget: Resources, totals: &ProfiledTotals) -> Self {
        OfflineOptimalPolicy {
            inner: StaticSelection::compute(
                catalog,
                budget,
                totals,
                // monoCG-Extensions are an mRTS novelty, not available to
                // the static schemes.
                &|ise| !ise.is_mono_extension(),
                ExecStyle::Tight,
            ),
        }
    }

    /// The fixed assignment (diagnostics).
    #[must_use]
    pub fn assignment(&self) -> Vec<(KernelId, IseId)> {
        self.inner.chosen.iter().map(|(k, i)| (*k, *i)).collect()
    }
}

impl RuntimePolicy for OfflineOptimalPolicy {
    fn name(&self) -> String {
        "offline-optimal".into()
    }

    fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
        self.inner.plan_block(ctx)
    }

    fn plan_execution(
        &mut self,
        _kernel: KernelId,
        selected: Option<IseId>,
        ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        self.inner.plan_execution(selected, ctx)
    }
}

/// The Morpheus/4S-like baseline (loosely coupled, single-fabric ISEs,
/// all-or-nothing execution).
#[derive(Debug, Clone)]
pub struct LooselyCoupledPolicy {
    inner: StaticSelection,
}

impl LooselyCoupledPolicy {
    /// Computes the best static single-fabric assignment for `budget`.
    #[must_use]
    pub fn new(catalog: &IseCatalog, budget: Resources, totals: &ProfiledTotals) -> Self {
        LooselyCoupledPolicy {
            inner: StaticSelection::compute(
                catalog,
                budget,
                totals,
                &|ise| ise.grain() != Grain::MultiGrained && !ise.is_mono_extension(),
                ExecStyle::Loose,
            ),
        }
    }

    /// The fixed assignment (diagnostics).
    #[must_use]
    pub fn assignment(&self) -> Vec<(KernelId, IseId)> {
        self.inner.chosen.iter().map(|(k, i)| (*k, *i)).collect()
    }
}

impl RuntimePolicy for LooselyCoupledPolicy {
    fn name(&self) -> String {
        "morpheus-4s-like".into()
    }

    fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
        self.inner.plan_block(ctx)
    }

    fn plan_execution(
        &mut self,
        _kernel: KernelId,
        selected: Option<IseId>,
        ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        self.inner.plan_execution(selected, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_arch::ArchParams;
    use mrts_core::Mrts;
    use mrts_sim::{RiscOnlyPolicy, Simulator};
    use mrts_workload::synthetic::{synthetic_trace, Pattern};
    use mrts_workload::{Trace, TraceBuilder, WorkloadModel};

    fn machine(cg: u16, prc: u16) -> Machine {
        Machine::new(ArchParams::default(), Resources::new(cg, prc)).unwrap()
    }

    fn toy_setup() -> (IseCatalog, Trace) {
        let toy = mrts_ingest::model("toy").expect("builtin toy lowers");
        let catalog = toy
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let trace = synthetic_trace(&toy, &[Pattern::Constant(2_000)], 6);
        (catalog, trace)
    }

    #[test]
    fn static_assignments_respect_filters() {
        let (catalog, trace) = toy_setup();
        let totals = ProfiledTotals::from_trace(&trace);
        let budget = Resources::new(2, 2);
        let loose = LooselyCoupledPolicy::new(&catalog, budget, &totals);
        for (_, ise) in loose.assignment() {
            assert_ne!(catalog.ise(ise).unwrap().grain(), Grain::MultiGrained);
        }
        let tight = OfflineOptimalPolicy::new(&catalog, budget, &totals);
        assert!(!tight.assignment().is_empty());
    }

    #[test]
    fn offline_optimal_beats_risc() {
        let (catalog, trace) = toy_setup();
        let totals = ProfiledTotals::from_trace(&trace);
        let budget = Resources::new(2, 2);
        let mut policy = OfflineOptimalPolicy::new(&catalog, budget, &totals);
        let stats = Simulator::run(&catalog, machine(2, 2), &trace, &mut policy);
        let risc = Simulator::run(&catalog, machine(2, 2), &trace, &mut RiscOnlyPolicy::new());
        assert!(stats.total_execution_time() < risc.total_execution_time());
        assert_eq!(stats.total_overhead(), Cycles::ZERO);
        assert_eq!(stats.rejected_loads, 0);
    }

    #[test]
    fn loosely_coupled_beats_risc_but_not_mrts_on_mg_machine() {
        let enc = mrts_ingest::model("h264").expect("builtin h264 lowers");
        let catalog = enc
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let trace = TraceBuilder::new(&enc).build();
        let totals = ProfiledTotals::from_trace(&trace);
        let budget = Resources::new(2, 2);
        let mut loose = LooselyCoupledPolicy::new(&catalog, budget, &totals);
        let stats = Simulator::run(&catalog, machine(2, 2), &trace, &mut loose);
        let risc = Simulator::run(&catalog, machine(2, 2), &trace, &mut RiscOnlyPolicy::new());
        let mrts = Simulator::run(&catalog, machine(2, 2), &trace, &mut Mrts::new());
        assert!(stats.total_execution_time() < risc.total_execution_time());
        assert!(
            mrts.total_execution_time() < stats.total_execution_time(),
            "mRTS {} vs Morpheus/4S-like {}",
            mrts.total_execution_time(),
            stats.total_execution_time()
        );
    }

    #[test]
    fn offline_optimal_static_on_h264_trails_mrts() {
        // Fig. 8: mRTS is on average ~1.45x faster than offline-optimal
        // because the static scheme cannot adapt or bridge with monoCG.
        let enc = mrts_ingest::model("h264").expect("builtin h264 lowers");
        let catalog = enc
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let trace = TraceBuilder::new(&enc).build();
        let totals = ProfiledTotals::from_trace(&trace);
        let budget = Resources::new(2, 2);
        let mut offline = OfflineOptimalPolicy::new(&catalog, budget, &totals);
        let off = Simulator::run(&catalog, machine(2, 2), &trace, &mut offline);
        let mrts = Simulator::run(&catalog, machine(2, 2), &trace, &mut Mrts::new());
        assert!(
            mrts.total_execution_time() <= off.total_execution_time(),
            "mRTS {} vs offline {}",
            mrts.total_execution_time(),
            off.total_execution_time()
        );
    }

    #[test]
    fn zero_budget_static_policies_degenerate_to_risc() {
        let (catalog, trace) = toy_setup();
        let totals = ProfiledTotals::from_trace(&trace);
        let mut p = OfflineOptimalPolicy::new(&catalog, Resources::NONE, &totals);
        assert!(p.assignment().is_empty());
        let stats = Simulator::run(&catalog, machine(0, 0), &trace, &mut p);
        let risc = Simulator::run(&catalog, machine(0, 0), &trace, &mut RiscOnlyPolicy::new());
        assert_eq!(stats.total_busy(), risc.total_busy());
    }
}
