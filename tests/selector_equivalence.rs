//! Equivalence guarantees of this PR's two perf tentpoles.
//!
//! 1. **Lazy-greedy == full-rescan oracle.** The selector's CELF-style
//!    lazy evaluation (`SelectorConfig::full_rescan = false`, the default)
//!    must return a [`Selection`] *bit-identical* to the paper's literal
//!    Fig. 6 loop (`full_rescan = true`) — same choices, same commit
//!    order, same `total_profit` bits, same modeled evaluation count and
//!    overhead — for arbitrary catalogues, budgets, forecasts, resident
//!    sets and in-flight reconfiguration state, while performing at most
//!    as many profit evaluations.
//! 2. **Parallel sweep == serial sweep.** `mrts_bench::par` must return
//!    results in input order so figure output is byte-identical for any
//!    worker count.

use mrts::arch::{
    ArchParams, Cycles, FabricKind, LoadRequest, ReconfigurationController, Resources,
};
use mrts::core::profit::expected_profit;
use mrts::core::selector::{select_ises, select_ises_with, Selection, SelectorConfig};
use mrts::ise::datapath::{DataPathGraph, OpKind};
use mrts::ise::{CatalogBuilder, IseCatalog, KernelSpec, TriggerBlock, TriggerInstruction, UnitId};
use proptest::prelude::*;

/// A chain data-path graph seeded from up to three inputs, its operators
/// picked by `indices` into [`OpKind::ALL`].
fn chain_graph(name: String, indices: &[usize]) -> DataPathGraph {
    let mut b = DataPathGraph::builder(name);
    let x = b.input();
    let y = b.input();
    let z = b.input();
    let mut last = x;
    for &i in indices {
        let kind = OpKind::ALL[i];
        let operands: Vec<_> = match kind.arity() {
            1 => vec![last],
            2 => vec![last, y],
            _ => vec![last, y, z],
        };
        last = b.op(kind, &operands);
    }
    b.finish().expect("chains are structurally valid")
}

fn arb_ops() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..OpKind::ALL.len(), 1..8)
}

/// A random but always-valid data-path graph — the same shape family
/// `selector_properties.rs` uses.
fn arb_graph(name: String) -> impl Strategy<Value = DataPathGraph> {
    arb_ops().prop_map(move |indices| chain_graph(name.clone(), &indices))
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
    prop::collection::vec(kernel, 1..5).prop_filter_map(
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

/// Kernels whose two data paths are the same graph under two names, so
/// mirrored fabric assignments give sibling ISEs equal `risc − full`
/// savings — and hence equal seed keys, which only the `IseId` tie-break
/// orders. Kept only when at least one such tie exists.
fn arb_tied_catalog() -> impl Strategy<Value = IseCatalog> {
    let kernel = (arb_ops(), 8u32..64, 10u64..200);
    prop::collection::vec(kernel, 1..4).prop_filter_map(
        "catalogue must build and contain a seed-key tie",
        |kernels| {
            let mut b = CatalogBuilder::new(ArchParams::default());
            for (i, (ops, calls, overhead)) in kernels.into_iter().enumerate() {
                b = b.kernel(
                    KernelSpec::new(format!("k{i}"))
                        .data_path(chain_graph(format!("k{i}a"), &ops), calls)
                        .data_path(chain_graph(format!("k{i}b"), &ops), calls)
                        .overhead_cycles(overhead),
                );
            }
            b.build().ok().filter(has_sibling_saving_tie)
        },
    )
}

fn has_sibling_saving_tie(catalog: &IseCatalog) -> bool {
    catalog.kernels().iter().any(|k| {
        let mut savings: Vec<u64> = catalog
            .ises_of(k.id())
            .iter()
            .map(|&id| {
                let ise = catalog.ise(id).expect("dense ids");
                (ise.risc_latency() - ise.full_latency()).get()
            })
            .filter(|&saving| saving > 0)
            .collect();
        savings.sort_unstable();
        savings.windows(2).any(|w| w[0] == w[1])
    })
}

fn forecast_for(catalog: &IseCatalog, e: u64, tf: u64, tb: u64) -> TriggerBlock {
    forecast_per_kernel(catalog, &[e], tf, tb)
}

/// One trigger per kernel, kernel `i` forecast with `es[i % es.len()]`
/// executions.
fn forecast_per_kernel(catalog: &IseCatalog, es: &[u64], tf: u64, tb: u64) -> TriggerBlock {
    TriggerBlock::new(
        mrts::ise::BlockId(0),
        catalog
            .kernels()
            .iter()
            .enumerate()
            .map(|(i, k)| {
                TriggerInstruction::new(k.id(), es[i % es.len()], Cycles::new(tf), Cycles::new(tb))
            })
            .collect(),
    )
}

/// Runs the default lazy path and the full-rescan oracle on one input
/// with the default evaluator, asserts them identical, and returns both.
fn lazy_and_oracle(
    catalog: &IseCatalog,
    forecast: &TriggerBlock,
    budget: Resources,
    resident: &dyn Fn(UnitId) -> bool,
    rc: &ReconfigurationController,
    now: Cycles,
) -> (Selection, Selection) {
    let lazy = select_ises(
        catalog,
        forecast,
        budget,
        resident,
        rc,
        now,
        &SelectorConfig::default(),
    );
    let oracle = select_ises(
        catalog,
        forecast,
        budget,
        resident,
        rc,
        now,
        &SelectorConfig {
            full_rescan: true,
            ..SelectorConfig::default()
        },
    );
    assert_selections_identical(&lazy, &oracle);
    assert!(lazy.candidates_evaluated <= oracle.candidates_evaluated);
    (lazy, oracle)
}

/// Bit-exact equality of everything the simulator consumes, plus the
/// cost-model counters. `candidates_evaluated` is deliberately *excluded*:
/// it is the one field the lazy path is allowed (required) to shrink.
fn assert_selections_identical(lazy: &Selection, oracle: &Selection) {
    assert_eq!(lazy.choices, oracle.choices);
    assert_eq!(lazy.selected.len(), oracle.selected.len());
    for (l, o) in lazy.selected.iter().zip(&oracle.selected) {
        assert_eq!(l.kernel, o.kernel);
        assert_eq!(l.ise, o.ise);
        assert_eq!(
            l.profit.to_bits(),
            o.profit.to_bits(),
            "profit bits diverged for kernel {:?}",
            l.kernel
        );
    }
    assert_eq!(lazy.load_order, oracle.load_order);
    assert_eq!(
        lazy.total_profit.to_bits(),
        oracle.total_profit.to_bits(),
        "total_profit bits diverged"
    );
    assert_eq!(lazy.modeled_evaluations, oracle.modeled_evaluations);
    assert_eq!(lazy.overhead_cycles, oracle.overhead_cycles);
}

/// [`lazy_and_oracle`] through `select_ises_with` and a closure evaluator,
/// which has no `upper_bound`: the eager seed path the RISPP-like
/// baseline's hook takes, every run seeded with evaluated round-0 profits.
fn eager_lazy_and_oracle(
    catalog: &IseCatalog,
    forecast: &TriggerBlock,
    budget: Resources,
    resident: &dyn Fn(UnitId) -> bool,
    rc: &ReconfigurationController,
    now: Cycles,
) {
    let mut eval =
        |ise: &mrts::ise::Ise, trigger: &TriggerInstruction, shadow: &ReconfigurationController| {
            expected_profit(ise, trigger, now, shadow, resident).profit
        };
    let lazy = select_ises_with(
        catalog,
        forecast,
        budget,
        resident,
        rc,
        now,
        &SelectorConfig::default(),
        &mut eval,
    );
    let oracle = select_ises_with(
        catalog,
        forecast,
        budget,
        resident,
        rc,
        now,
        &SelectorConfig {
            full_rescan: true,
            ..SelectorConfig::default()
        },
        &mut eval,
    );
    assert_selections_identical(&lazy, &oracle);
    assert!(lazy.candidates_evaluated <= oracle.candidates_evaluated);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cold start: empty controller, nothing resident. Each kernel gets
    /// its own execution forecast, so the runs' seed keys interleave
    /// instead of scaling one shared `e`.
    #[test]
    fn lazy_equals_oracle_cold(
        catalog in arb_catalog(),
        cg in 0u16..8,
        prc in 0u16..5,
        es in prop::collection::vec(0u64..30_000, 1..5),
        tb in 1u64..1_000,
    ) {
        let forecast = forecast_per_kernel(&catalog, &es, 500, tb);
        let rc = ReconfigurationController::new();
        let none = |_: UnitId| false;
        let _ = lazy_and_oracle(
            &catalog, &forecast, Resources::new(cg, prc), &none, &rc, Cycles::ZERO,
        );
    }

    /// Warm start: in-flight loads queue behind the ports, some units are
    /// already resident, and the selection starts mid-run — the regime the
    /// per-round profit memo actually has to get right.
    #[test]
    fn lazy_equals_oracle_warm(
        catalog in arb_catalog(),
        cg in 1u16..8,
        prc in 1u16..5,
        e in 1u64..30_000,
        tb in 1u64..1_000,
        now_raw in 0u64..50_000,
        inflight in 0usize..4,
        resident_mod in 1u64..5,
    ) {
        let budget = Resources::new(cg, prc);
        let forecast = forecast_for(&catalog, e, 500, tb);
        let now = Cycles::new(now_raw);

        // Occupy the load ports with unrelated traffic so predicted unit
        // ready times depend on real queueing state.
        let mut rc = ReconfigurationController::new();
        let units = catalog.units();
        for (i, u) in units.iter().take(inflight).enumerate() {
            let fabric = if i % 2 == 0 { FabricKind::FineGrained } else { FabricKind::CoarseGrained };
            let _ = rc.request(now, LoadRequest {
                id: u.id().as_loaded_id(),
                fabric,
                duration: Cycles::new(700 + 300 * i as u64),
            });
        }
        // A deterministic pseudo-random resident subset.
        let resident = move |u: UnitId| u.as_loaded_id().is_multiple_of(resident_mod);
        let _ = lazy_and_oracle(&catalog, &forecast, budget, &resident, &rc, now);
    }

    /// The eager seed path (see [`eager_lazy_and_oracle`]), warm.
    #[test]
    fn lazy_equals_oracle_eager_closure(
        catalog in arb_catalog(),
        cg in 0u16..8,
        prc in 0u16..5,
        e in 1u64..30_000,
        tb in 1u64..1_000,
        now_raw in 0u64..50_000,
        resident_mod in 2u64..6,
    ) {
        let budget = Resources::new(cg, prc);
        let forecast = forecast_for(&catalog, e, 500, tb);
        let now = Cycles::new(now_raw);
        let rc = ReconfigurationController::new();
        let resident = move |u: UnitId| u.as_loaded_id().is_multiple_of(resident_mod);
        eager_lazy_and_oracle(&catalog, &forecast, budget, &resident, &rc, now);
    }

    /// Sibling ISEs with equal `risc − full` savings have equal bound seed
    /// keys, and — when fully resident (`resident_mod == 1`) — equal
    /// evaluated profits too: the `IseId` tie-break alone orders them
    /// within a run, for both seed paths.
    #[test]
    fn lazy_equals_oracle_on_seed_key_ties(
        catalog in arb_tied_catalog(),
        cg in 0u16..8,
        prc in 0u16..5,
        es in prop::collection::vec(1u64..30_000, 1..4),
        tb in 1u64..1_000,
        resident_mod in 0u64..5,
    ) {
        let forecast = forecast_per_kernel(&catalog, &es, 500, tb);
        let rc = ReconfigurationController::new();
        let resident =
            move |u: UnitId| resident_mod > 0 && u.as_loaded_id().is_multiple_of(resident_mod);
        let budget = Resources::new(cg, prc);
        let _ = lazy_and_oracle(&catalog, &forecast, budget, &resident, &rc, Cycles::ZERO);
        eager_lazy_and_oracle(&catalog, &forecast, budget, &resident, &rc, Cycles::ZERO);
    }
}

/// The H.264 testbed at the largest Fig. 8 machine runs several commit
/// rounds; the lazy path must save evaluations there, not just tie. The
/// exact count pins the lazy path's evaluation order: any change to which
/// candidates it re-evaluates, or when, moves it.
#[test]
fn lazy_saves_evaluations_on_the_paper_catalog() {
    let catalog = mrts::workload::h264::h264_application()
        .build_catalog(ArchParams::default(), None)
        .expect("encoder kernels are mappable");
    let forecast = forecast_for(&catalog, 4_000, 1_000, 300);
    let rc = ReconfigurationController::new();
    let none = |_: UnitId| false;
    let (lazy, oracle) = lazy_and_oracle(
        &catalog,
        &forecast,
        Resources::new(4, 3),
        &none,
        &rc,
        Cycles::ZERO,
    );
    assert_eq!(lazy.candidates_evaluated, 14, "lazy evaluation order moved");
    assert!(
        lazy.candidates_evaluated < oracle.candidates_evaluated,
        "lazy path evaluated {} candidates, oracle {}",
        lazy.candidates_evaluated,
        oracle.candidates_evaluated
    );
}

/// The parallel sweep runner returns real figure cells in input order:
/// the formatted table rows are byte-identical for 1, 2 and 8 workers.
#[test]
fn parallel_figure_cells_are_byte_identical_across_thread_counts() {
    use mrts_bench::{par, Testbed, DEFAULT_SEED};

    let tb = Testbed::new(DEFAULT_SEED);
    let combos = [
        Resources::new(0, 1),
        Resources::new(1, 0),
        Resources::new(1, 1),
        Resources::new(2, 1),
        Resources::new(1, 2),
        Resources::new(2, 2),
    ];
    let render = |_: usize, combo: &Resources| {
        let stats = tb.run(*combo, &mut mrts::core::Mrts::new());
        format!(
            "{combo}: {:>12} cycles, {} executions",
            stats.total_execution_time().get(),
            stats.total_executions()
        )
    };
    let serial = par::map_ordered(1, &combos, render);
    for threads in [2, 8] {
        let parallel = par::map_ordered(threads, &combos, render);
        assert_eq!(serial, parallel, "threads={threads} diverged from serial");
    }
}
