//! The static (compile-time) selection baselines, one policy type with two
//! constructors. The paper's Section 5 tells them apart by two things only:
//! which ISEs they may pick and how they execute.
//!
//! * [`StaticPolicy::offline_optimal`] — the paper's *offline (optimal)
//!   selection for tightly coupled multi-grained fabrics*: the best
//!   possible static one-ISE-per-kernel assignment given the whole run's
//!   (profiled) kernel totals and the full machine budget, MG-ISEs allowed,
//!   intermediate ISEs used as their stages arrive. It cannot react to
//!   run-time variation and has no monoCG-Extension — the two effects
//!   behind mRTS's average 1.45× advantage in Fig. 8.
//! * [`StaticPolicy::loosely_coupled`] — the Morpheus/4S-like approach: the
//!   same static optimal selection but restricted to single-fabric (FG-only
//!   or CG-only) ISEs, because in a loosely coupled architecture *"the
//!   communication possibilities between the CG- and FG-fabric are
//!   limited … no multi-grained ISE can be used within a functional
//!   block"*. Execution is all-or-nothing: a kernel either runs on its
//!   fully configured accelerator or in RISC mode (no intermediate ISEs).

use mrts_arch::{Cycles, ReconfigurationController, Resources};
use mrts_core::dp_optimal_selection;
use mrts_core::profit::ExpectedProfitEval;
use mrts_core::selector::ProfitFn;
use mrts_ise::{Grain, Ise, IseCatalog, IseId, KernelId, TriggerBlock, TriggerInstruction};
use mrts_sim::{BlockPlan, ExecContext, ExecMode, ExecPlan, RuntimePolicy, SelectionContext};
use mrts_workload::Trace;
use std::collections::BTreeMap;

/// Whole-run profiling summary: what an *offline* selection scheme knows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ProfiledTotals {
    /// Total executions per kernel over the whole run.
    executions: BTreeMap<KernelId, u64>,
    /// Mean inter-execution gap per kernel.
    gap: BTreeMap<KernelId, Cycles>,
}

impl ProfiledTotals {
    /// Summarizes a trace (the paper's offline schemes perform *"an
    /// extensive evaluation of an application's processing behaviour"* at
    /// compile time; giving them the real totals of the very input to be
    /// run makes them the strongest possible static competitor).
    fn from_trace(trace: &Trace) -> Self {
        let mut executions: BTreeMap<KernelId, u64> = BTreeMap::new();
        let mut gap_sum: BTreeMap<KernelId, (u64, u64)> = BTreeMap::new();
        for act in trace.activations() {
            for a in &act.actual {
                *executions.entry(a.kernel).or_insert(0) += a.executions;
                let e = gap_sum.entry(a.kernel).or_insert((0, 0));
                e.0 += a.gap.get();
                e.1 += 1;
            }
        }
        let gap = gap_sum
            .into_iter()
            .map(|(k, (s, n))| (k, Cycles::new(s / n.max(1))))
            .collect();
        ProfiledTotals { executions, gap }
    }

    /// Total executions of one kernel (0 when never observed).
    fn executions_of(&self, kernel: KernelId) -> u64 {
        self.executions.get(&kernel).copied().unwrap_or(0)
    }

    /// Mean gap of one kernel.
    fn gap_of(&self, kernel: KernelId) -> Cycles {
        self.gap.get(&kernel).copied().unwrap_or(Cycles::new(300))
    }
}

/// A static baseline: one ISE per kernel, chosen once from the whole-run
/// profile and never replaced, so it plans no evictions and charges no
/// selection overhead.
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    name: &'static str,
    /// The fixed per-kernel assignment.
    chosen: BTreeMap<KernelId, IseId>,
    /// Loosely coupled execution: only the fully configured accelerator or
    /// RISC mode. Tightly coupled execution uses intermediate ISEs too.
    all_or_nothing: bool,
}

impl StaticPolicy {
    /// The offline-optimal baseline: the optimal static assignment for
    /// `budget` given `trace`'s whole-run profile, tightly coupled.
    #[must_use]
    pub fn offline_optimal(catalog: &IseCatalog, budget: Resources, trace: &Trace) -> Self {
        // monoCG-Extensions are an mRTS novelty, not available to the
        // static schemes.
        let chosen = select(catalog, budget, trace, |ise| !ise.is_mono_extension());
        StaticPolicy {
            name: "offline-optimal",
            chosen,
            all_or_nothing: false,
        }
    }

    /// The Morpheus/4S-like baseline: the best static single-fabric
    /// assignment for `budget` given `trace`'s whole-run profile, loosely
    /// coupled.
    #[must_use]
    pub fn loosely_coupled(catalog: &IseCatalog, budget: Resources, trace: &Trace) -> Self {
        let chosen = select(catalog, budget, trace, |ise| {
            ise.grain() != Grain::MultiGrained && !ise.is_mono_extension()
        });
        StaticPolicy {
            name: "morpheus-4s-like",
            chosen,
            all_or_nothing: true,
        }
    }

    /// The fixed assignment (diagnostics).
    #[must_use]
    pub fn assignment(&self) -> Vec<(KernelId, IseId)> {
        self.chosen.iter().map(|(k, i)| (*k, *i)).collect()
    }
}

/// The optimal static assignment among the ISEs `filter` admits.
fn select(
    catalog: &IseCatalog,
    budget: Resources,
    trace: &Trace,
    filter: impl Fn(&Ise) -> bool,
) -> BTreeMap<KernelId, IseId> {
    let totals = ProfiledTotals::from_trace(trace);
    // One synthetic trigger block holding every kernel of the application
    // with its whole-run totals: the "extensive evaluation of the
    // application's processing behaviour" the paper ascribes to
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
    let none_resident = |_| false;
    let mut eq4 = ExpectedProfitEval::new(Cycles::ZERO, &none_resident);
    // A candidate outside `filter` scores 0, which the DP never picks.
    let mut profit = |ise: &Ise, t: &TriggerInstruction, rc: &ReconfigurationController| {
        if filter(ise) {
            eq4.eval(ise, t, rc)
        } else {
            0.0
        }
    };
    dp_optimal_selection(catalog, &forecast, budget, &none_resident, &rc, &mut profit)
        .choices
        .into_iter()
        .filter_map(|(k, i)| i.map(|i| (k, i)))
        .collect()
}

impl RuntimePolicy for StaticPolicy {
    fn name(&self) -> String {
        self.name.into()
    }

    fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
        let selections: Vec<(KernelId, Option<IseId>)> = ctx
            .forecast
            .iter()
            .map(|t| (t.kernel, self.chosen.get(&t.kernel).copied()))
            .collect();
        // Every stage of every chosen ISE; the engine skips the units
        // already resident or streaming.
        let load_order = selections
            .iter()
            .filter_map(|&(_, sel)| sel)
            .flat_map(|id| {
                let ise = ctx.catalog.ise(id).expect("static choice is valid");
                ise.unit_ids()
            })
            .collect();
        BlockPlan {
            selections,
            evict: Vec::new(), // the static assignment fits by construction
            load_order,
            overhead: Cycles::ZERO, // decisions were made at compile time
        }
    }

    fn plan_execution(
        &mut self,
        _kernel: KernelId,
        selected: Option<IseId>,
        ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        match selected {
            Some(id)
                if !self.all_or_nothing
                    || ctx
                        .catalog
                        .ise(id)
                        .is_ok_and(|ise| ise.is_fully_resident(|u| ctx.is_resident(u))) =>
            {
                ExecPlan {
                    mode: ExecMode::Ise(id),
                    install_mono: false,
                }
            }
            _ => ExecPlan::risc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_arch::{ArchParams, Machine};
    use mrts_core::Mrts;
    use mrts_sim::{RiscOnlyPolicy, Simulator};
    use mrts_workload::synthetic::{synthetic_trace, Pattern};
    use mrts_workload::{TraceBuilder, WorkloadModel};

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

    fn h264_setup() -> (IseCatalog, Trace) {
        let enc = mrts_ingest::model("h264").expect("builtin h264 lowers");
        let catalog = enc
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let trace = TraceBuilder::new(&enc).build();
        (catalog, trace)
    }

    #[test]
    fn profiled_totals_sum_trace() {
        let toy = mrts_ingest::model("toy").expect("builtin toy lowers");
        let trace = synthetic_trace(&toy, &[Pattern::Constant(100)], 5);
        let p = ProfiledTotals::from_trace(&trace);
        assert_eq!(p.executions_of(KernelId(0)), 500);
        assert_eq!(p.gap_of(KernelId(0)), Cycles::new(300));
        assert_eq!(p.executions_of(KernelId(9)), 0);
    }

    #[test]
    fn static_assignments_respect_filters() {
        let (catalog, trace) = toy_setup();
        let budget = Resources::new(2, 2);
        let loose = StaticPolicy::loosely_coupled(&catalog, budget, &trace);
        for (_, ise) in loose.assignment() {
            assert_ne!(catalog.ise(ise).unwrap().grain(), Grain::MultiGrained);
        }
        let tight = StaticPolicy::offline_optimal(&catalog, budget, &trace);
        assert!(!tight.assignment().is_empty());
    }

    #[test]
    fn offline_optimal_beats_risc() {
        let (catalog, trace) = toy_setup();
        let budget = Resources::new(2, 2);
        let mut policy = StaticPolicy::offline_optimal(&catalog, budget, &trace);
        let stats = Simulator::run(&catalog, machine(2, 2), &trace, &mut policy);
        let risc = Simulator::run(&catalog, machine(2, 2), &trace, &mut RiscOnlyPolicy::new());
        assert!(stats.total_execution_time() < risc.total_execution_time());
        assert_eq!(stats.total_overhead(), Cycles::ZERO);
        assert_eq!(stats.rejected_loads, 0);
    }

    #[test]
    fn loosely_coupled_beats_risc_but_not_mrts_on_mg_machine() {
        let (catalog, trace) = h264_setup();
        let budget = Resources::new(2, 2);
        let mut loose = StaticPolicy::loosely_coupled(&catalog, budget, &trace);
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
        let (catalog, trace) = h264_setup();
        let budget = Resources::new(2, 2);
        let mut offline = StaticPolicy::offline_optimal(&catalog, budget, &trace);
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
        let mut p = StaticPolicy::offline_optimal(&catalog, Resources::NONE, &trace);
        assert!(p.assignment().is_empty());
        let stats = Simulator::run(&catalog, machine(0, 0), &trace, &mut p);
        let risc = Simulator::run(&catalog, machine(0, 0), &trace, &mut RiscOnlyPolicy::new());
        assert_eq!(stats.total_busy(), risc.total_busy());
    }
}
