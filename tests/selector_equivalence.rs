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
    ArchParams, Cycles, FabricKind, LoadRequest, Machine, ReconfigurationController, Resources,
};
use mrts::core::profit::{expected_profit, ExpectedProfitEval, ProfitEvalBuffers};
use mrts::core::selector::{
    select_ises, select_ises_with, select_ises_with_scratch, ProfitFn, Selection, SelectorConfig,
    SelectorScratch,
};
use mrts::core::{Mrts, MrtsConfig};
use mrts::ingest::BUILTIN_APPS;
use mrts::ise::datapath::{DataPathGraph, OpKind};
use mrts::ise::{
    CatalogBuilder, Ise, IseCatalog, KernelSpec, TriggerBlock, TriggerInstruction, UnitId,
};
use mrts::sim::{ResidentSet, RuntimePolicy, SelectionContext};
use mrts::workload::WorkloadModel;
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

/// One kernel of [`arb_catalog`]: two data paths, a call count and an
/// overhead.
type KernelParts = (DataPathGraph, DataPathGraph, u32, u64);

fn arb_kernels() -> impl Strategy<Value = Vec<KernelParts>> {
    let kernel = (0u32..u32::MAX).prop_flat_map(|salt| {
        (
            arb_graph(format!("g{salt}a")),
            arb_graph(format!("g{salt}b")),
            8u32..64,
            10u64..200,
        )
    });
    prop::collection::vec(kernel, 1..5)
}

/// The catalogue of `kernels`, if it builds and has an ISE.
fn build_catalog(kernels: &[KernelParts]) -> Option<IseCatalog> {
    let mut b = CatalogBuilder::new(ArchParams::default());
    for (i, (ga, gb, calls, overhead)) in kernels.iter().enumerate() {
        b = b.kernel(
            KernelSpec::new(format!("k{i}"))
                .data_path(ga.clone(), *calls)
                .data_path(gb.clone(), calls / 2 + 1)
                .overhead_cycles(*overhead),
        );
    }
    b.build().ok().filter(|c| !c.ises().is_empty())
}

fn arb_catalog() -> impl Strategy<Value = IseCatalog> {
    arb_kernels().prop_filter_map("catalogue must build and stay non-trivial", |kernels| {
        build_catalog(&kernels)
    })
}

/// Two catalogues alive at once: independent ones, or one and the same
/// kernels in reverse order — as many ISEs and units, laid out differently.
fn arb_catalog_pair() -> impl Strategy<Value = (IseCatalog, IseCatalog)> {
    (arb_kernels(), arb_kernels(), any::<bool>()).prop_filter_map(
        "both catalogues must build",
        |(a, b, reversed)| {
            let second = if reversed {
                build_catalog(&a.iter().rev().cloned().collect::<Vec<_>>())
            } else {
                build_catalog(&b)
            };
            Some((build_catalog(&a)?, second?))
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
        &SelectorConfig { full_rescan: true },
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
/// which has no `upper_bound`. The selector reads the missing bound as
/// `+∞`, so every fitting candidate is evaluated in the first round, as
/// the oracle's first sweep does.
fn unbounded_lazy_and_oracle(
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
        &SelectorConfig { full_rescan: true },
        &mut eval,
    );
    assert_selections_identical(&lazy, &oracle);
    assert!(lazy.candidates_evaluated <= oracle.candidates_evaluated);
}

/// RISPP-like, the `Mrts` preset with RISPP's profit, plans `forecast` on
/// a machine of `budget` EDPEs and PRCs, once with the lazy selector and
/// once with the full-rescan oracle: the plans must be identical. The
/// plan carries the selection's choices and load order, and its overhead
/// is the cost model's charge for the oracle's evaluation count. Units
/// whose id is a multiple of `resident_mod` (none when it is 0) are
/// loaded at time 0 where they fit; at `now` they are resident or still
/// streaming.
fn rispp_like_plan_equals_oracle(
    catalog: &IseCatalog,
    forecast: &TriggerBlock,
    budget: Resources,
    resident_mod: u64,
    now: Cycles,
) {
    plan_equals_oracle(
        MrtsConfig::rispp_like(),
        catalog,
        forecast,
        budget,
        resident_mod,
        now,
    );
}

/// [`rispp_like_plan_equals_oracle`] for any `Mrts` preset `config`.
fn plan_equals_oracle(
    config: MrtsConfig,
    catalog: &IseCatalog,
    forecast: &TriggerBlock,
    budget: Resources,
    resident_mod: u64,
    now: Cycles,
) {
    let mut machine = Machine::new(ArchParams::default(), budget).expect("valid machine");
    for unit in catalog.units() {
        let id = unit.id().as_loaded_id();
        if resident_mod == 0 || !id.is_multiple_of(resident_mod) {
            continue;
        }
        let _ = match unit.fabric() {
            FabricKind::FineGrained => machine.load_fg(Cycles::ZERO, id, unit.bitstream_bytes()),
            FabricKind::CoarseGrained => machine.load_cg(Cycles::ZERO, id, unit.cg_instrs()),
        };
    }
    let mut resident = ResidentSet::default();
    resident.capture(&machine, now, catalog.units().len());
    let ctx = SelectionContext {
        now,
        catalog,
        machine: &machine,
        forecast,
        resident: &resident,
    };
    let plan = |full_rescan| {
        let mut config = config;
        config.selector.full_rescan = full_rescan;
        Mrts::with_config(config).plan_block(&ctx)
    };
    assert_eq!(plan(false), plan(true));
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
        rispp_like_plan_equals_oracle(&catalog, &forecast, Resources::new(cg, prc), 0, Cycles::ZERO);
    }

    /// Warm start: in-flight loads queue behind the ports, some units are
    /// already resident, and the selection starts mid-run — the regime the
    /// profit memo's capture and catch-up actually have to get right.
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
        rispp_like_plan_equals_oracle(&catalog, &forecast, budget, resident_mod, now);
    }

    /// A closure evaluator without a bound (see
    /// [`unbounded_lazy_and_oracle`]), warm.
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
        unbounded_lazy_and_oracle(&catalog, &forecast, budget, &resident, &rc, now);
    }

    /// Sibling ISEs with equal `risc − full` savings have equal bound seed
    /// keys, and — when fully resident (`resident_mod == 1`) — equal
    /// evaluated profits too: the `IseId` tie-break alone orders them
    /// within a run, for evaluators with and without a bound.
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
        unbounded_lazy_and_oracle(&catalog, &forecast, budget, &resident, &rc, Cycles::ZERO);
        rispp_like_plan_equals_oracle(&catalog, &forecast, budget, resident_mod, Cycles::ZERO);
    }
}

/// The selection over a concrete residency closure, the way `Mrts` runs
/// it (the evaluator built on bound-table buffers, every probe inlined),
/// equals the one through `select_ises_with`'s `&dyn Fn` on every field,
/// `candidates_evaluated` included, and both equal the full-rescan oracle
/// on every field but that one.
fn concrete_equals_dyn_and_oracle<R: Fn(UnitId) -> bool>(
    catalog: &IseCatalog,
    forecast: &TriggerBlock,
    budget: Resources,
    resident: &R,
    rc: &ReconfigurationController,
    now: Cycles,
) {
    let mut bufs = ProfitEvalBuffers::default();
    bufs.rebind_catalog(catalog);
    let mut concrete_eval = ExpectedProfitEval::with_buffers(now, resident, bufs);
    let concrete = select_ises_with_scratch(
        catalog,
        forecast,
        budget,
        resident,
        rc,
        now,
        &SelectorConfig::default(),
        &mut concrete_eval,
        &mut SelectorScratch::new(),
    );
    let resident: &dyn Fn(UnitId) -> bool = resident;
    let dynamic = select_ises_with(
        catalog,
        forecast,
        budget,
        resident,
        rc,
        now,
        &SelectorConfig::default(),
        &mut ExpectedProfitEval::new(now, resident),
    );
    let oracle = select_ises_with(
        catalog,
        forecast,
        budget,
        resident,
        rc,
        now,
        &oracle_config(),
        &mut ExpectedProfitEval::new(now, resident),
    );
    assert_eq!(concrete, dynamic, "the concrete and the dyn path diverged");
    assert_selections_identical(&concrete, &oracle);
    assert!(concrete.candidates_evaluated <= oracle.candidates_evaluated);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loads in flight on both ports and a partly resident fabric: the
    /// concrete-predicate path, the `&dyn` path and the oracle agree (see
    /// [`concrete_equals_dyn_and_oracle`]), and so do mRTS's own lazy and
    /// full-rescan plans, for the mRTS and the RISPP-like presets.
    #[test]
    fn concrete_predicate_path_equals_dyn_path_and_oracle(
        catalog in arb_catalog(),
        cg in 0u16..8,
        prc in 0u16..5,
        es in prop::collection::vec(0u64..30_000, 1..5),
        tb in 1u64..1_000,
        now_raw in 0u64..50_000,
        inflight in prop::collection::vec((0usize..64, any::<bool>(), 100u64..900_000), 0..6),
        resident_mod in 0u64..5,
    ) {
        let forecast = forecast_per_kernel(&catalog, &es, 500, tb);
        let now = Cycles::new(now_raw);
        let mut rc = ReconfigurationController::new();
        let units = catalog.units();
        for (i, fg, duration) in inflight {
            let fabric = if fg { FabricKind::FineGrained } else { FabricKind::CoarseGrained };
            let _ = rc.request(Cycles::ZERO, LoadRequest {
                id: units[i % units.len()].id().as_loaded_id(),
                fabric,
                duration: Cycles::new(duration),
            });
        }
        let resident =
            move |u: UnitId| resident_mod > 0 && u.as_loaded_id().is_multiple_of(resident_mod);
        let budget = Resources::new(cg, prc);
        concrete_equals_dyn_and_oracle(&catalog, &forecast, budget, &resident, &rc, now);
        for config in [MrtsConfig::default(), MrtsConfig::rispp_like()] {
            plan_equals_oracle(config, &catalog, &forecast, budget, resident_mod, now);
        }
    }
}

/// An evaluator whose bound is one flat key per trigger, the kernel's
/// largest `e · (risc − full)`: every candidate of a run ties on it, so
/// only the `IseId` tie-break orders the run, against its saving rank.
/// With `flat_profit` every profit is that key too, so the tie-break alone
/// picks each winner.
struct FlatBound<'a> {
    inner: ExpectedProfitEval<'a>,
    catalog: &'a IseCatalog,
    flat_profit: bool,
}

impl FlatBound<'_> {
    fn key(&self, trigger: &TriggerInstruction) -> f64 {
        let max_saving = self
            .catalog
            .ises_of(trigger.kernel)
            .iter()
            .map(|&id| {
                let ise = self.catalog.ise(id).expect("dense ids");
                (ise.risc_latency() - ise.full_latency()).get()
            })
            .max()
            .unwrap_or(0);
        trigger.expected_executions as f64 * max_saving as f64
    }
}

impl ProfitFn for FlatBound<'_> {
    fn eval(
        &mut self,
        ise: &Ise,
        trigger: &TriggerInstruction,
        shadow: &ReconfigurationController,
    ) -> f64 {
        if self.flat_profit {
            self.key(trigger)
        } else {
            self.inner.eval(ise, trigger, shadow)
        }
    }

    fn invalidate(&mut self) {
        self.inner.invalidate();
    }

    fn upper_bound(&mut self, _: &Ise, trigger: &TriggerInstruction) -> Option<f64> {
        Some(self.key(trigger))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forecasts of 2⁴⁰ to 2⁵⁰ executions push seed keys past 2⁵³, where
    /// `e · (risc − full)` is rounded: the lazy path still selects what
    /// the oracle does, on a random catalogue and on one whose sibling
    /// savings tie (so equal keys leave the order to the `IseId`
    /// tie-break).
    #[test]
    fn lazy_equals_oracle_with_huge_execution_counts(
        catalog in arb_catalog(),
        tied in arb_tied_catalog(),
        cg in 0u16..8,
        prc in 0u16..5,
        es in prop::collection::vec((1u64 << 40)..(1u64 << 50), 1..5),
        tb in 1u64..1_000,
        resident_mod in 0u64..5,
    ) {
        let rc = ReconfigurationController::new();
        let resident =
            move |u: UnitId| resident_mod > 0 && u.as_loaded_id().is_multiple_of(resident_mod);
        let budget = Resources::new(cg, prc);
        for catalog in [&catalog, &tied] {
            let forecast = forecast_per_kernel(catalog, &es, 500, tb);
            let _ = lazy_and_oracle(catalog, &forecast, budget, &resident, &rc, Cycles::ZERO);
            unbounded_lazy_and_oracle(catalog, &forecast, budget, &resident, &rc, Cycles::ZERO);
            rispp_like_plan_equals_oracle(catalog, &forecast, budget, resident_mod, Cycles::ZERO);
        }
    }

    /// Every candidate's bound ties with its run's others, and with
    /// `flat_profit` every profit too (see [`FlatBound`]), so the `IseId`
    /// tie-break alone orders each run, whatever the saving rank says.
    #[test]
    fn lazy_equals_oracle_when_every_bound_ties(
        catalog in arb_catalog(),
        cg in 0u16..8,
        prc in 0u16..5,
        es in prop::collection::vec(0u64..30_000, 1..5),
        resident_mod in 0u64..5,
        flat_profit in any::<bool>(),
    ) {
        let forecast = forecast_per_kernel(&catalog, &es, 500, 200);
        let rc = ReconfigurationController::new();
        let resident =
            move |u: UnitId| resident_mod > 0 && u.as_loaded_id().is_multiple_of(resident_mod);
        let budget = Resources::new(cg, prc);
        let eval = || FlatBound {
            inner: ExpectedProfitEval::new(Cycles::ZERO, &resident),
            catalog: &catalog,
            flat_profit,
        };
        let lazy = select_ises_with(
            &catalog, &forecast, budget, &resident, &rc, Cycles::ZERO,
            &SelectorConfig::default(), &mut eval(),
        );
        let oracle = select_ises_with(
            &catalog, &forecast, budget, &resident, &rc, Cycles::ZERO,
            &oracle_config(), &mut eval(),
        );
        assert_selections_identical(&lazy, &oracle);
        prop_assert!(lazy.candidates_evaluated <= oracle.candidates_evaluated);
    }
}

/// The lazy path's one assumption about an evaluator's bounds: along a
/// kernel's static rank (per-execution saving `risc − full` descending,
/// then `IseId` ascending) the positive [`ExpectedProfitEval`] bounds of
/// one trigger never rise, and equal ones come in `IseId` order. Checked
/// for every kernel of the six builtin catalogues, at small and huge
/// execution counts, with monoCG candidates allowed and disallowed.
/// RISPP's bound, which is its profit, gets the same check next to its
/// private evaluator (`mrts-core`'s
/// `rispp_bound_is_its_profit_and_follows_the_static_rank`).
#[test]
fn expected_profit_bounds_follow_the_static_rank() {
    let none = |_: UnitId| false;
    for app in BUILTIN_APPS {
        let catalog = mrts::ingest::model(app)
            .expect("builtin lowers")
            .application()
            .build_catalog(ArchParams::default(), None)
            .expect("builtin catalogue builds");
        let mut bufs = ProfitEvalBuffers::default();
        bufs.rebind_catalog(&catalog);
        for kernel in catalog.kernels() {
            let mut rank: Vec<&Ise> = catalog
                .ises_of(kernel.id())
                .iter()
                .map(|&id| catalog.ise(id).expect("dense ids"))
                .collect();
            rank.sort_by(|a, b| {
                let saving = |i: &Ise| i.risc_latency() - i.full_latency();
                saving(b).cmp(&saving(a)).then(a.id().cmp(&b.id()))
            });
            for allow_mono in [true, false] {
                for e in [0, 1, 3, 4_000, 30_000, 1 << 40, (1 << 50) + 7, u64::MAX] {
                    let trigger =
                        TriggerInstruction::new(kernel.id(), e, Cycles::new(500), Cycles::new(200));
                    let mut eval =
                        ExpectedProfitEval::with_buffers(Cycles::ZERO, &none, bufs.clone())
                            .with_mono(allow_mono);
                    let bounds: Vec<(f64, &Ise)> = rank
                        .iter()
                        .map(|&ise| {
                            let bound = eval.upper_bound(ise, &trigger).expect("Eq. 4 has a bound");
                            (bound, ise)
                        })
                        .filter(|&(bound, _)| bound > 0.0)
                        .collect();
                    for pair in bounds.windows(2) {
                        let ((hi, a), (lo, b)) = (pair[0], pair[1]);
                        assert!(
                            lo < hi || (lo == hi && a.id() < b.id()),
                            "{app} {}: e = {e}, {} bound {hi} ranks before {} bound {lo}",
                            kernel.name(),
                            a.label(),
                            b.label()
                        );
                    }
                }
            }
        }
    }
}

fn oracle_config() -> SelectorConfig {
    SelectorConfig { full_rescan: true }
}

/// One selection through a caller-held scratch with a fresh evaluator,
/// checked against a fresh-scratch lazy run (bit-identical, evaluation
/// count included) and the full-rescan oracle. The outgoing buffers are
/// handed back, as mRTS does, so the next call reuses them.
#[allow(clippy::too_many_arguments)]
fn reused_scratch_selection(
    scratch: &mut SelectorScratch,
    catalog: &IseCatalog,
    forecast: &TriggerBlock,
    budget: Resources,
    resident: &dyn Fn(UnitId) -> bool,
    rc: &ReconfigurationController,
    now: Cycles,
    allow_mono: bool,
) {
    let eval = || ExpectedProfitEval::new(now, resident).with_mono(allow_mono);
    let config = SelectorConfig::default();
    let reused = select_ises_with_scratch(
        catalog,
        forecast,
        budget,
        resident,
        rc,
        now,
        &config,
        &mut eval(),
        scratch,
    );
    let fresh = select_ises_with(
        catalog,
        forecast,
        budget,
        resident,
        rc,
        now,
        &config,
        &mut eval(),
    );
    let oracle = select_ises_with(
        catalog,
        forecast,
        budget,
        resident,
        rc,
        now,
        &oracle_config(),
        &mut eval(),
    );
    assert_eq!(reused, fresh, "a reused scratch changed the selection");
    assert_selections_identical(&reused, &oracle);
    scratch.reclaim(reused.choices, reused.load_order);
    scratch.reclaim_selected(reused.selected);
}

/// One kernel with 70 data paths: its ISEs use more distinct units (79)
/// than one 64-bit slot mask holds.
fn wide_kernel_catalog() -> &'static IseCatalog {
    static CATALOG: std::sync::OnceLock<IseCatalog> = std::sync::OnceLock::new();
    CATALOG.get_or_init(|| {
        let mut spec = KernelSpec::new("wide");
        for i in 0..70 {
            let ops: &[usize] = if i % 2 == 0 { &[0, 2] } else { &[9, 4] };
            spec = spec.data_path(chain_graph(format!("d{i}"), ops), 16);
        }
        let catalog = CatalogBuilder::new(ArchParams::default())
            .kernel(spec.overhead_cycles(100))
            .kernel(
                KernelSpec::new("narrow")
                    .data_path(chain_graph("n0".into(), &[0, 2]), 32)
                    .overhead_cycles(50),
            )
            .build()
            .expect("the wide catalogue builds");
        let wide = catalog.kernels()[0].id();
        let mut units: Vec<UnitId> = catalog
            .ises_of(wide)
            .iter()
            .flat_map(|&id| catalog.ise(id).expect("dense ids").unit_ids())
            .collect();
        units.sort_unstable();
        units.dedup();
        assert!(units.len() > 64, "only {} distinct units", units.len());
        catalog
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One scratch serves a random sequence of selections on two
    /// catalogues in turn — warm in-flight loads, resident subsets, zero
    /// execution counts and repeated kernels included — and every
    /// selection equals a fresh scratch's and the oracle's.
    #[test]
    fn reused_scratch_equals_fresh_across_catalogues(
        catalogs in arb_catalog_pair(),
        steps in prop::collection::vec(
            (
                (any::<bool>(), prop::collection::vec(0u64..30_000, 1..5), 0u16..8, 0u16..5),
                (0u64..6, 0u64..50_000, 0usize..3, any::<bool>()),
            ),
            1..7,
        ),
    ) {
        let mut scratch = SelectorScratch::new();
        for ((second, es, cg, prc), (resident_mod, now_raw, inflight, repeat)) in steps {
            let catalog = if second { &catalogs.1 } else { &catalogs.0 };
            let mut forecast = forecast_per_kernel(catalog, &es, 500, 200);
            if repeat {
                // A kernel triggered twice in one block.
                let again = forecast.triggers[0];
                forecast.triggers.push(again);
            }
            let now = Cycles::new(now_raw);
            let mut rc = ReconfigurationController::new();
            for (i, u) in catalog.units().iter().rev().take(inflight).enumerate() {
                let fabric = if i % 2 == 0 { FabricKind::FineGrained } else { FabricKind::CoarseGrained };
                let _ = rc.request(now, LoadRequest {
                    id: u.id().as_loaded_id(),
                    fabric,
                    duration: Cycles::new(900 + 200 * i as u64),
                });
            }
            let resident =
                move |u: UnitId| resident_mod > 0 && u.as_loaded_id().is_multiple_of(resident_mod);
            reused_scratch_selection(
                &mut scratch, catalog, &forecast, Resources::new(cg, prc), &resident, &rc, now, true,
            );
        }
    }

    /// The ECU ablation's evaluator (`with_mono(false)`) bounds every
    /// monoCG candidate at zero, so its runs skip them.
    #[test]
    fn lazy_equals_oracle_without_mono(
        catalog in arb_catalog(),
        cg in 0u16..8,
        prc in 0u16..5,
        es in prop::collection::vec(0u64..30_000, 1..5),
        resident_mod in 0u64..5,
    ) {
        let forecast = forecast_per_kernel(&catalog, &es, 500, 200);
        let rc = ReconfigurationController::new();
        let resident =
            move |u: UnitId| resident_mod > 0 && u.as_loaded_id().is_multiple_of(resident_mod);
        let mut scratch = SelectorScratch::new();
        reused_scratch_selection(
            &mut scratch, &catalog, &forecast, Resources::new(cg, prc), &resident, &rc,
            Cycles::ZERO, false,
        );
    }

    /// Triggers that forecast no executions bound every candidate at zero:
    /// the lazy path seeds nothing for them yet still charges the oracle's
    /// evaluations.
    #[test]
    fn lazy_equals_oracle_with_zero_executions(
        catalog in arb_catalog(),
        cg in 0u16..8,
        prc in 0u16..5,
        es in prop::collection::vec((0u64..30_000).prop_map(|e| if e % 3 == 0 { 0 } else { e }), 1..5),
    ) {
        let forecast = forecast_per_kernel(&catalog, &es, 500, 200);
        let rc = ReconfigurationController::new();
        let none = |_: UnitId| false;
        let _ = lazy_and_oracle(&catalog, &forecast, Resources::new(cg, prc), &none, &rc, Cycles::ZERO);
        unbounded_lazy_and_oracle(&catalog, &forecast, Resources::new(cg, prc), &none, &rc, Cycles::ZERO);
        rispp_like_plan_equals_oracle(&catalog, &forecast, Resources::new(cg, prc), 0, Cycles::ZERO);
    }

    /// A kernel with more unit slots than one mask word selects exactly as
    /// the oracle does, cold and warm.
    #[test]
    fn lazy_equals_oracle_on_a_wide_kernel(
        cg in 0u16..40,
        prc in 0u16..40,
        es in prop::collection::vec(1u64..30_000, 1..3),
        resident_mod in 0u64..5,
        inflight in 0usize..3,
    ) {
        let catalog = wide_kernel_catalog();
        let forecast = forecast_per_kernel(catalog, &es, 500, 200);
        let mut rc = ReconfigurationController::new();
        for u in catalog.units().iter().skip(40).take(inflight) {
            let _ = rc.request(Cycles::ZERO, LoadRequest {
                id: u.id().as_loaded_id(),
                fabric: FabricKind::CoarseGrained,
                duration: Cycles::new(500),
            });
        }
        let resident =
            move |u: UnitId| resident_mod > 0 && u.as_loaded_id().is_multiple_of(resident_mod);
        let mut scratch = SelectorScratch::new();
        for _ in 0..2 {
            reused_scratch_selection(
                &mut scratch, catalog, &forecast, Resources::new(cg, prc), &resident, &rc,
                Cycles::ZERO, true,
            );
        }
    }
}

/// The H.264 testbed at the largest Fig. 8 machine runs several commit
/// rounds; the lazy path must save evaluations there, not just tie. The
/// exact count pins the lazy path's evaluation order: any change to which
/// candidates it re-evaluates, or when, moves it.
#[test]
fn lazy_saves_evaluations_on_the_paper_catalog() {
    let catalog = mrts_bench::Testbed::new("h264", 1).unwrap().catalog;
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

/// The selector's evaluation counts, pinned as exact values: the first
/// seven H.264 kernels at 4 000 executions each on the 4 CG + 3 PRC
/// machine, cold. The lazy path evaluates 13 candidates and the full
/// re-scan oracle 240; the lazy path charges the cost model the oracle's
/// 240. RISPP-like's counts on the same block (2 lazy, 222 for the oracle
/// and the cost model) are pinned next to its private evaluator, in
/// `mrts-core`'s `rispp_like_selection_equals_the_oracle_and_its_evaluations_are_pinned`.
/// (The name is historical: these counts were once entries of a
/// host-time suite.)
#[test]
fn bench_suite_selection_evaluation_counts_are_pinned() {
    let catalog = mrts_bench::Testbed::new("h264", mrts_bench::DEFAULT_SEED)
        .unwrap()
        .catalog;
    let forecast = TriggerBlock::new(
        mrts::ise::BlockId(0),
        catalog
            .kernels()
            .iter()
            .take(7)
            .map(|k| TriggerInstruction::new(k.id(), 4_000, Cycles::new(1_000), Cycles::new(300)))
            .collect(),
    );
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
    assert_eq!(lazy.candidates_evaluated, 13, "selection_lazy_evals moved");
    assert_eq!(
        oracle.candidates_evaluated, 240,
        "selection_full_rescan_evals moved"
    );
    assert_eq!(lazy.modeled_evaluations, 240);
}

/// The parallel sweep runner returns real figure cells in input order:
/// the formatted table rows are byte-identical for 1, 2 and 8 workers.
#[test]
fn parallel_figure_cells_are_byte_identical_across_thread_counts() {
    use mrts_bench::{par, Testbed, DEFAULT_SEED};

    let tb = Testbed::new("h264", DEFAULT_SEED).unwrap();
    let combos = [
        Resources::new(0, 1),
        Resources::new(1, 0),
        Resources::new(1, 1),
        Resources::new(2, 1),
        Resources::new(1, 2),
        Resources::new(2, 2),
    ];
    let render = |_: usize, combo: &Resources| {
        let stats = tb.run(*combo, &mut mrts::core::Mrts::new()).unwrap();
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
