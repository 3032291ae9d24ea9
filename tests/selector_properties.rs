//! Property-based tests of the selection stack over *randomly generated*
//! applications: arbitrary data-path graphs, kernel mixes, budgets and
//! forecasts. The invariants must hold for any catalogue the compile-time
//! tool chain can produce, not just the H.264 one.

use mrts::arch::{ArchParams, Cycles, ReconfigurationController, Resources};
use mrts::core::dp_optimal_selection;
use mrts::core::profit::ExpectedProfitEval;
use mrts::core::selector::{select_ises, SelectorConfig, BASE_CYCLES_PER_KERNEL};
use mrts::ise::datapath::{DataPathGraph, OpKind};
use mrts::ise::{
    CatalogBuilder, IseCatalog, KernelId, KernelSpec, TriggerBlock, TriggerInstruction, UnitId,
};
use proptest::prelude::*;

/// A random but always-valid data-path graph: a chain seeded from one or
/// two inputs, mixing word- and bit-level operations.
fn arb_graph(name: String) -> impl Strategy<Value = DataPathGraph> {
    let ops = prop::collection::vec(0usize..OpKind::ALL.len(), 1..8);
    ops.prop_map(move |indices| {
        let mut b = DataPathGraph::builder(name.clone());
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let mut last = x;
        for i in indices {
            let kind = OpKind::ALL[i];
            let operands: Vec<_> = match kind.arity() {
                1 => vec![last],
                2 => vec![last, y],
                _ => vec![last, y, z],
            };
            last = b.op(kind, &operands);
        }
        b.finish().expect("chains are structurally valid")
    })
}

fn arb_catalog() -> impl Strategy<Value = IseCatalog> {
    let kernel = (0u32..u32::MAX).prop_flat_map(|salt| {
        (
            arb_graph(format!("g{salt}a")),
            arb_graph(format!("g{salt}b")),
            8u32..64,
            10u64..200,
        )
    });
    prop::collection::vec(kernel, 1..4).prop_filter_map(
        "catalogue must build and stay non-trivial",
        |kernels| {
            let mut b = CatalogBuilder::new(ArchParams::default());
            for (i, (ga, gb, calls, overhead)) in kernels.into_iter().enumerate() {
                b = b.kernel(
                    KernelSpec::new(format!("k{i}"))
                        .data_path(ga, calls)
                        .data_path(gb, calls / 2 + 1)
                        .overhead_cycles(overhead),
                );
            }
            b.build().ok().filter(|c| !c.ises().is_empty())
        },
    )
}

fn forecast_for(catalog: &IseCatalog, e: u64, tf: u64, tb: u64) -> TriggerBlock {
    TriggerBlock::new(
        mrts::ise::BlockId(0),
        catalog
            .kernels()
            .iter()
            .map(|k| TriggerInstruction::new(k.id(), e, Cycles::new(tf), Cycles::new(tb)))
            .collect(),
    )
}

fn none_resident(_: UnitId) -> bool {
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The greedy selection respects every structural constraint of the
    /// paper's problem statement for arbitrary catalogues.
    #[test]
    fn greedy_selection_invariants(
        catalog in arb_catalog(),
        cg in 0u16..6,
        prc in 0u16..4,
        e in 1u64..30_000,
        tb in 1u64..1_000,
    ) {
        let budget = Resources::new(cg, prc);
        let forecast = forecast_for(&catalog, e, 500, tb);
        let rc = ReconfigurationController::new();
        let sel = select_ises(
            &catalog, &forecast, budget, &none_resident, &rc, Cycles::ZERO,
            &SelectorConfig::default(),
        );

        // Exactly one choice entry per forecast kernel.
        prop_assert_eq!(sel.choices.len(), catalog.kernels().len());
        // At most one selected ISE per kernel, and it must match its kernel.
        let mut seen: Vec<KernelId> = Vec::new();
        for s in &sel.selected {
            prop_assert!(!seen.contains(&s.kernel));
            seen.push(s.kernel);
            let ise = catalog.ise(s.ise).expect("dense ids");
            prop_assert_eq!(ise.kernel(), s.kernel);
            prop_assert!(s.profit > 0.0, "never select an unprofitable ISE");
        }
        // The loaded units fit the budget.
        let demand: Resources = sel.load_order.iter().map(|u| catalog.unit(*u).resources()).sum();
        prop_assert!(demand.fits_in(budget), "{} vs {}", demand, budget);
        // Every loaded unit belongs to a selected ISE.
        for u in &sel.load_order {
            let owned = sel
                .selected
                .iter()
                .any(|s| catalog.ise(s.ise).expect("dense ids").uses_unit(*u));
            prop_assert!(owned, "loaded unit {} belongs to no selected ISE", u);
        }
        // No duplicate loads.
        let mut units = sel.load_order.clone();
        units.sort_unstable();
        units.dedup();
        prop_assert_eq!(units.len(), sel.load_order.len());
        // The overhead model charges at least the per-kernel base cost.
        prop_assert!(sel.overhead_cycles.get()
            >= BASE_CYCLES_PER_KERNEL * catalog.kernels().len() as u64);
    }

    /// The exact DP optimum never falls below the greedy heuristic — on
    /// any catalogue, budget and forecast.
    #[test]
    fn dp_dominates_greedy(
        catalog in arb_catalog(),
        cg in 0u16..5,
        prc in 0u16..4,
        e in 1u64..30_000,
    ) {
        let budget = Resources::new(cg, prc);
        let forecast = forecast_for(&catalog, e, 500, 300);
        let rc = ReconfigurationController::new();
        let greedy = select_ises(
            &catalog, &forecast, budget, &none_resident, &rc, Cycles::ZERO,
            &SelectorConfig::default(),
        );
        let mut eq4 = ExpectedProfitEval::new(Cycles::ZERO, &none_resident);
        let optimal = dp_optimal_selection(
            &catalog, &forecast, budget, &none_resident, &rc, &mut eq4,
        );
        prop_assert!(
            optimal.total_profit >= greedy.total_profit - 1e-6,
            "optimal {} < greedy {}",
            optimal.total_profit,
            greedy.total_profit
        );
        // The DP also respects the budget.
        let demand: Resources = optimal
            .load_order
            .iter()
            .map(|u| catalog.unit(*u).resources())
            .sum();
        prop_assert!(demand.fits_in(budget));
    }

    /// Residency can only help: making units free never lowers the
    /// greedy selection's total profit.
    #[test]
    fn residency_is_monotone(
        catalog in arb_catalog(),
        e in 100u64..20_000,
        resident_mask in any::<u64>(),
    ) {
        let budget = Resources::new(2, 2);
        let forecast = forecast_for(&catalog, e, 500, 300);
        let rc = ReconfigurationController::new();
        let cold = select_ises(
            &catalog, &forecast, budget, &none_resident, &rc, Cycles::ZERO,
            &SelectorConfig::default(),
        );
        let resident = move |u: UnitId| (resident_mask >> (u.index() % 64)) & 1 == 1;
        let warm = select_ises(
            &catalog, &forecast, budget, &resident, &rc, Cycles::ZERO,
            &SelectorConfig::default(),
        );
        prop_assert!(
            warm.total_profit >= cold.total_profit - 1e-6,
            "warm {} < cold {}",
            warm.total_profit,
            cold.total_profit
        );
    }
}
