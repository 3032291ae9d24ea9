//! The exact per-trigger optimum of the selection objective — the search
//! of [`Search::BudgetDp`](crate::runtime::Search::BudgetDp).
//!
//! The paper uses an optimal algorithm *"merely to evaluate the quality of
//! our proposed ISE selector"* (Fig. 9), because enumerating all
//! combinations (more than 78 million for six H.264 kernels) is infeasible
//! at run time. Since kernels never share load units across kernels, the
//! per-kernel profits are additive, and the exact optimum over the
//! one-ISE-per-kernel / fits-the-budget constraints is computable by
//! dynamic programming over the two-dimensional resource budget — orders
//! of magnitude cheaper than enumeration while returning the same answer
//! (the tests cross-check it against the enumeration).
//! (The only approximation relative to a full joint evaluation is that
//! configuration-port queueing *between different kernels'* loads is not
//! reflected in the profit estimates; the simulation that consumes the
//! selection uses real queueing.)

use crate::selector::{ProfitFn, SelectedIse, Selection};
use mrts_arch::{Cycles, ReconfigurationController, Resources};
use mrts_ise::{Ise, IseCatalog, IseId, TriggerBlock, UnitId};

/// Exact optimal selection by dynamic programming over the resource
/// budget, every candidate priced once by `profit` against the trigger-time
/// port state.
///
/// The answer is a [`Selection`] like the greedy selector's, with
/// `selected` in forecast order and `overhead_cycles` zero: the optimum
/// is a quality reference, so its decision cost is never charged.
/// Candidates that score `<= 0` are never chosen, which is how a caller
/// restricts the candidate set (e.g. the Morpheus/4S baseline scores
/// multi-grained ISEs 0).
#[must_use]
pub fn dp_optimal_selection<P: ProfitFn + ?Sized>(
    catalog: &IseCatalog,
    forecast: &TriggerBlock,
    budget: Resources,
    resident: &dyn Fn(UnitId) -> bool,
    controller: &ReconfigurationController,
    profit: &mut P,
) -> Selection {
    let cg_cap = usize::from(budget.cg());
    let prc_cap = usize::from(budget.prc());
    let states = (cg_cap + 1) * (prc_cap + 1);
    let idx = |c: usize, p: usize| c * (prc_cap + 1) + p;
    let needs_load =
        |u: UnitId| !resident(u) && controller.pending_ready_time(u.as_loaded_id()).is_none();

    let mut dp = vec![0.0f64; states];
    // Per kernel: chosen (ise, demand, profit) per state; None = skip.
    type Choice = Option<(IseId, Resources, f64)>;
    let mut back: Vec<Vec<Choice>> = Vec::new();
    let mut evaluated = 0u64;

    for t in forecast.iter() {
        let mut next = dp.clone(); // skip this kernel
        let mut choice: Vec<Choice> = vec![None; states];
        for id in catalog.ises_of(t.kernel) {
            let ise = catalog.ise(*id).expect("dense ids");
            let demand = new_demand(catalog, ise, &needs_load);
            if !demand.fits_in(budget) {
                continue;
            }
            let value = profit.eval(ise, t, controller);
            evaluated += 1;
            if value <= 0.0 {
                continue;
            }
            let (dc, dpz) = (usize::from(demand.cg()), usize::from(demand.prc()));
            for c in dc..=cg_cap {
                for p in dpz..=prc_cap {
                    let cand = dp[idx(c - dc, p - dpz)] + value;
                    if cand > next[idx(c, p)] + 1e-12 {
                        next[idx(c, p)] = cand;
                        choice[idx(c, p)] = Some((ise.id(), demand, value));
                    }
                }
            }
        }
        dp = next;
        back.push(choice);
    }

    // Best terminal state.
    let (mut best_c, mut best_p, mut best_v) = (0usize, 0usize, f64::NEG_INFINITY);
    for c in 0..=cg_cap {
        for p in 0..=prc_cap {
            if dp[idx(c, p)] > best_v {
                best_v = dp[idx(c, p)];
                best_c = c;
                best_p = p;
            }
        }
    }

    // Backtrack kernel by kernel (in reverse forecast order).
    let triggers = &forecast.triggers;
    let (mut c, mut p) = (best_c, best_p);
    let mut picked: Vec<Choice> = vec![None; triggers.len()];
    for k in (0..triggers.len()).rev() {
        picked[k] = back[k][idx(c, p)];
        if let Some((_, demand, _)) = picked[k] {
            c -= usize::from(demand.cg());
            p -= usize::from(demand.prc());
        }
    }
    let mut choices = Vec::with_capacity(triggers.len());
    let mut selected = Vec::new();
    let mut load_order = Vec::new();
    for (t, sel) in triggers.iter().zip(&picked) {
        choices.push((t.kernel, sel.map(|(id, _, _)| id)));
        if let Some((id, _, value)) = *sel {
            let ise = catalog.ise(id).expect("dense ids");
            let new_units: Vec<UnitId> = ise
                .stages()
                .iter()
                .map(|s| s.unit)
                .filter(|&u| needs_load(u))
                .collect();
            load_order.extend_from_slice(&new_units);
            selected.push(SelectedIse {
                kernel: t.kernel,
                ise: id,
                profit: value,
                new_units,
            });
        }
    }

    Selection {
        choices,
        selected,
        load_order,
        total_profit: best_v.max(0.0),
        candidates_evaluated: evaluated,
        modeled_evaluations: evaluated,
        overhead_cycles: Cycles::ZERO,
    }
}

/// Resources a candidate still needs (units neither resident nor
/// streaming).
fn new_demand(catalog: &IseCatalog, ise: &Ise, needs_load: &dyn Fn(UnitId) -> bool) -> Resources {
    ise.stages()
        .iter()
        .filter(|s| needs_load(s.unit))
        .map(|s| catalog.unit(s.unit).resources())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profit::{expected_profit, ExpectedProfitEval};
    use crate::selector::{select_ises, SelectorConfig};
    use mrts_arch::ArchParams;
    use mrts_ise::{KernelId, TriggerInstruction};
    use mrts_workload::WorkloadModel;

    fn toy_setup() -> (IseCatalog, TriggerBlock) {
        let toy = mrts_ingest::model("toy").expect("builtin toy lowers");
        let catalog = toy
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let forecast = TriggerBlock::new(
            mrts_ise::BlockId(0),
            vec![TriggerInstruction::new(
                KernelId(0),
                2_000,
                Cycles::new(1_000),
                Cycles::new(300),
            )],
        );
        (catalog, forecast)
    }

    fn none_resident(_: UnitId) -> bool {
        false
    }

    fn dp(catalog: &IseCatalog, forecast: &TriggerBlock, budget: Resources) -> Selection {
        let rc = ReconfigurationController::new();
        let mut eq4 = ExpectedProfitEval::new(Cycles::ZERO, &none_resident);
        dp_optimal_selection(catalog, forecast, budget, &none_resident, &rc, &mut eq4)
    }

    /// Brute-force enumeration of all one-ISE-per-kernel combinations
    /// (including "no ISE"), pruning combinations that violate the budget —
    /// the algorithm the paper deems infeasible at run time, kept as the
    /// DP's cross-check. Returns `(best profit, combinations visited)` and
    /// gives up (returning what it has) after `node_cap` visits.
    fn exhaustive_optimal_profit(
        catalog: &IseCatalog,
        forecast: &TriggerBlock,
        budget: Resources,
        resident: &dyn Fn(UnitId) -> bool,
        controller: &ReconfigurationController,
        now: Cycles,
        node_cap: u64,
    ) -> (f64, u64) {
        let needs_load =
            |u: UnitId| !resident(u) && controller.pending_ready_time(u.as_loaded_id()).is_none();
        // Pre-evaluate candidates per kernel.
        let mut menus: Vec<Vec<(f64, Resources)>> = Vec::new();
        for t in forecast.iter() {
            let mut menu = vec![(0.0, Resources::NONE)]; // "no ISE"
            for id in catalog.ises_of(t.kernel) {
                let ise = catalog.ise(*id).expect("dense ids");
                let demand = new_demand(catalog, ise, &needs_load);
                if !demand.fits_in(budget) {
                    continue;
                }
                let profit = expected_profit(ise, t, now, controller, resident).profit;
                menu.push((profit, demand));
            }
            menus.push(menu);
        }
        let mut best = 0.0f64;
        let mut visited = 0u64;
        #[allow(clippy::too_many_arguments)]
        fn rec(
            menus: &[Vec<(f64, Resources)>],
            k: usize,
            acc: f64,
            used: Resources,
            budget: Resources,
            best: &mut f64,
            visited: &mut u64,
            cap: u64,
        ) {
            if *visited >= cap {
                return;
            }
            if k == menus.len() {
                *visited += 1;
                if acc > *best {
                    *best = acc;
                }
                return;
            }
            for (p, d) in &menus[k] {
                let next = used + *d;
                if next.fits_in(budget) {
                    rec(menus, k + 1, acc + p, next, budget, best, visited, cap);
                } else {
                    *visited += 1; // a pruned combination still counts as visited
                }
            }
        }
        rec(
            &menus,
            0,
            0.0,
            Resources::NONE,
            budget,
            &mut best,
            &mut visited,
            node_cap,
        );
        (best, visited)
    }

    #[test]
    fn dp_matches_exhaustive_on_small_instance() {
        let (catalog, forecast) = toy_setup();
        let rc = ReconfigurationController::new();
        for budget in [
            Resources::new(0, 0),
            Resources::new(1, 0),
            Resources::new(0, 2),
            Resources::new(2, 2),
            Resources::new(3, 3),
        ] {
            let dp = dp(&catalog, &forecast, budget);
            let (brute, _) = exhaustive_optimal_profit(
                &catalog,
                &forecast,
                budget,
                &none_resident,
                &rc,
                Cycles::ZERO,
                1_000_000,
            );
            assert!(
                (dp.total_profit - brute).abs() < 1e-6,
                "budget {budget}: dp {} vs brute {brute}",
                dp.total_profit
            );
        }
    }

    #[test]
    fn optimal_never_below_greedy() {
        let (catalog, forecast) = toy_setup();
        let rc = ReconfigurationController::new();
        for budget in [
            Resources::new(1, 1),
            Resources::new(2, 0),
            Resources::new(0, 3),
            Resources::new(2, 3),
        ] {
            let dp = dp(&catalog, &forecast, budget);
            let greedy = select_ises(
                &catalog,
                &forecast,
                budget,
                &none_resident,
                &rc,
                Cycles::ZERO,
                &SelectorConfig::default(),
            );
            assert!(
                dp.total_profit >= greedy.total_profit - 1e-6,
                "budget {budget}"
            );
        }
    }

    #[test]
    fn dp_answers_like_the_selector_and_charges_nothing() {
        let (catalog, forecast) = toy_setup();
        let sel = dp(&catalog, &forecast, Resources::new(2, 2));
        assert_eq!(sel.overhead_cycles, Cycles::ZERO);
        assert_eq!(sel.modeled_evaluations, sel.candidates_evaluated);
        let [chosen] = sel.selected.as_slice() else {
            panic!("one kernel, one pick: {sel:?}");
        };
        assert_eq!(sel.choices, vec![(KernelId(0), Some(chosen.ise))]);
        assert_eq!(sel.load_order, chosen.new_units);
        assert!((chosen.profit - sel.total_profit).abs() < 1e-9);
    }

    #[test]
    fn dp_respects_budget_and_a_zero_scored_filter() {
        let (catalog, forecast) = toy_setup();
        let rc = ReconfigurationController::new();
        let budget = Resources::new(1, 1);
        let mut eq4 = ExpectedProfitEval::new(Cycles::ZERO, &none_resident);
        let mut no_mg = |ise: &Ise, t: &TriggerInstruction, rc: &ReconfigurationController| {
            if ise.grain() == mrts_ise::Grain::MultiGrained {
                0.0
            } else {
                eq4.eval(ise, t, rc)
            }
        };
        let sel =
            dp_optimal_selection(&catalog, &forecast, budget, &none_resident, &rc, &mut no_mg);
        let demand: Resources = sel
            .load_order
            .iter()
            .map(|u| catalog.unit(*u).resources())
            .sum();
        assert!(demand.fits_in(budget));
        for (_, choice) in &sel.choices {
            if let Some(id) = choice {
                assert_ne!(
                    catalog.ise(*id).unwrap().grain(),
                    mrts_ise::Grain::MultiGrained
                );
            }
        }
    }

    #[test]
    fn combination_space_is_paper_scale() {
        // The paper quotes >78 million combinations for six kernels; our
        // transform_encode block has seven kernels with dozens of variants.
        let enc = mrts_ingest::model("h264").expect("builtin h264 lowers");
        let catalog = enc
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let kernels: Vec<KernelId> = enc.application().blocks()[1].kernels.clone();
        assert!(kernels.len() >= 7);
        let combos = catalog.combination_count(&kernels);
        assert!(
            combos > 78_000_000,
            "search space should exceed the paper's 78M: {combos}"
        );
    }
}
