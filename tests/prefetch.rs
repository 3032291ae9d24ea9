//! Speculative-prefetch correctness (ISSUE 8 satellite 3).
//!
//! Three invariants pin the speculation machinery:
//!
//! 1. **Off ⇒ invisible.** With prefetch disabled (the default) — or
//!    enabled but with an unreachable confidence threshold, so the
//!    planner runs yet never nominates — runs are byte-identical to the
//!    trigger-time-only system: same stats serialization, same event
//!    log. (The 15 goldens in `timeline_equivalence.rs` additionally pin
//!    the default-config output against checked-in files.)
//! 2. **Always-wrong ⇒ harmless.** A predictor that is wrong on every
//!    block must complete the run with statistics *byte-identical* to
//!    trigger-time (not merely "no worse"): exact trigger-time machine
//!    state is restored before the next block is planned, so no demand
//!    load is ever delayed and the only cost is wasted configuration
//!    bandwidth, visible solely as `PrefetchIssued`/`PrefetchWasted`
//!    event pairs.
//! 3. **On ⇒ deterministic and profitable.** The same run repeated gives
//!    the same bytes, and on a periodic workload the predictor converges:
//!    speculative loads hit and the run is no slower than trigger-time.

use mrts::arch::{ArchParams, FabricKind, Machine, Resources};
use mrts::core::{Mrts, MrtsConfig, PrefetchConfig};
use mrts::ise::IseCatalog;
use mrts::ise::{KernelId, UnitId};
use mrts::sim::{
    BlockPlan, ExecContext, ExecPlan, FaultEvent, PrefetchStats, RunStats, RuntimePolicy,
    SelectionContext, SimEvent, Simulator, VecSink,
};
use mrts::workload::synthetic::{synthetic_trace, Pattern};
use mrts::workload::{Trace, WorkloadModel};
use mrts_bench::Testbed;
use proptest::prelude::*;

fn machine(cg: u16, prc: u16) -> Machine {
    Machine::new(ArchParams::default(), Resources::new(cg, prc)).unwrap()
}

fn prefetch_on(confidence_min: f64) -> MrtsConfig {
    MrtsConfig {
        prefetch: PrefetchConfig {
            enabled: true,
            confidence_min,
            ..PrefetchConfig::default()
        },
        ..MrtsConfig::default()
    }
}

/// Runs a trace collecting the event log and the speculation counters.
fn run_with_events(
    catalog: &IseCatalog,
    machine: Machine,
    trace: &Trace,
    policy: &mut dyn RuntimePolicy,
) -> (RunStats, Vec<(u32, SimEvent)>, PrefetchStats) {
    let sink = VecSink::new();
    let mut sim = Simulator::new(catalog, machine);
    sim.attach_events(0, Box::new(sink.clone()));
    let stats = sim.run_trace(trace, policy);
    sim.finish_events();
    (stats, sink.take(), sim.prefetch_stats())
}

fn stats_bytes(stats: &RunStats) -> String {
    serde_json::to_string(stats).expect("stats serialize")
}

fn is_prefetch_event(e: &SimEvent) -> bool {
    matches!(
        e,
        SimEvent::PrefetchIssued { .. }
            | SimEvent::PrefetchHit { .. }
            | SimEvent::PrefetchWasted { .. }
    )
}

// ---------------------------------------------------------------------
// 2. Misprediction storm.
// ---------------------------------------------------------------------

/// Wraps mRTS and replaces every plan's prefetch nomination with units
/// that are *guaranteed wrong*: their kernels appear neither in the
/// current block's forecast (so mid-block state is untouched) nor in the
/// next block's (so no plan can ever demand-load them and the judgment
/// phases must roll every one back).
struct MispredictionStorm {
    inner: Mrts,
    wrong: Vec<Vec<UnitId>>,
    calls: usize,
}

impl MispredictionStorm {
    /// Precomputes, per activation, up to two FG units whose kernel is
    /// outside both the activation's and its successor's forecasts.
    fn new(catalog: &IseCatalog, trace: &Trace) -> Self {
        let acts = trace.activations();
        let mut wrong = Vec::with_capacity(acts.len());
        for (i, a) in acts.iter().enumerate() {
            let mut banned: Vec<KernelId> = a.forecast.iter().map(|t| t.kernel).collect();
            if let Some(next) = acts.get(i + 1) {
                banned.extend(next.forecast.iter().map(|t| t.kernel));
            }
            let units: Vec<UnitId> = catalog
                .units()
                .iter()
                .filter(|u| u.fabric() == FabricKind::FineGrained && !banned.contains(&u.kernel()))
                .map(|u| u.id())
                .take(2)
                .collect();
            wrong.push(units);
        }
        MispredictionStorm {
            inner: Mrts::new(),
            wrong,
            calls: 0,
        }
    }
}

impl RuntimePolicy for MispredictionStorm {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
        let mut plan = self.inner.plan_block(ctx);
        plan.prefetch = self.wrong.get(self.calls).cloned().unwrap_or_default();
        self.calls += 1;
        plan
    }

    fn plan_execution(
        &mut self,
        kernel: KernelId,
        selected: Option<mrts::ise::IseId>,
        ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        self.inner.plan_execution(kernel, selected, ctx)
    }

    fn observe_block_end(
        &mut self,
        block: mrts::ise::BlockId,
        observed: &[mrts::workload::KernelActivity],
    ) {
        self.inner.observe_block_end(block, observed);
    }

    fn notify_fault(&mut self, event: &FaultEvent) {
        self.inner.notify_fault(event);
    }

    fn set_resource_slice(&mut self, slice: Option<Resources>) {
        self.inner.set_resource_slice(slice);
    }

    fn recycle_plan(&mut self, plan: BlockPlan) {
        self.inner.recycle_plan(plan);
    }
}

#[test]
fn misprediction_storm_is_byte_identical_to_trigger_time() {
    let Testbed { catalog, trace, .. } = Testbed::new("h264", 1);

    let (base_stats, base_events, base_pf) =
        run_with_events(&catalog, machine(2, 16), &trace, &mut Mrts::new());
    assert_eq!(base_pf, PrefetchStats::default());

    let mut storm = MispredictionStorm::new(&catalog, &trace);
    let (storm_stats, storm_events, storm_pf) =
        run_with_events(&catalog, machine(2, 16), &trace, &mut storm);

    // The storm must actually exercise speculation for this test to mean
    // anything; if the fabric had no idle FG bandwidth the engine would
    // (correctly) refuse every request.
    assert!(storm_pf.issued > 0, "storm never issued: {storm_pf:?}");
    assert_eq!(storm_pf.hits, 0, "always-wrong specs cannot hit");
    assert_eq!(
        storm_pf.wasted, storm_pf.issued,
        "every wrong spec must be rolled back: {storm_pf:?}"
    );

    // Statistics are byte-identical: no demand load was delayed, no epoch
    // boundary moved, no execution reclassified.
    assert_eq!(stats_bytes(&base_stats), stats_bytes(&storm_stats));

    // And the event spine is identical too, once the speculation's own
    // bookkeeping (issue/waste pairs) is filtered out.
    let storm_demand: Vec<_> = storm_events
        .iter()
        .filter(|(_, e)| !is_prefetch_event(e))
        .cloned()
        .collect();
    assert_eq!(base_events, storm_demand);
}

// ---------------------------------------------------------------------
// 3. Determinism and profit on a periodic workload.
// ---------------------------------------------------------------------

#[test]
fn prefetch_on_is_deterministic_and_never_slower_on_h264() {
    let Testbed { catalog, trace, .. } = Testbed::new("h264", 1);

    let (trigger_stats, _, _) = run_with_events(&catalog, machine(2, 16), &trace, &mut Mrts::new());

    let run = || {
        run_with_events(
            &catalog,
            machine(2, 16),
            &trace,
            &mut Mrts::with_config(prefetch_on(0.5)),
        )
    };
    let (s1, e1, p1) = run();
    let (s2, e2, p2) = run();

    // Byte-determinism: identical stats, identical event log, identical
    // speculation counters across repeated runs.
    assert_eq!(stats_bytes(&s1), stats_bytes(&s2));
    assert_eq!(e1, e2);
    assert_eq!(p1, p2);

    // The frame loop is periodic, so the order-2 predictor converges and
    // speculation pays off.
    assert!(p1.issued > 0, "{p1:?}");
    assert!(
        p1.hits > 0,
        "predictor never hit on a periodic trace: {p1:?}"
    );
    assert!(
        s1.total_execution_time() <= trigger_stats.total_execution_time(),
        "prefetch-on ({}) slower than trigger-time ({})",
        s1.total_execution_time(),
        trigger_stats.total_execution_time()
    );

    // Every issue is resolved exactly once.
    let issued = e1
        .iter()
        .filter(|(_, e)| matches!(e, SimEvent::PrefetchIssued { .. }))
        .count() as u64;
    let resolved = e1
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                SimEvent::PrefetchHit { .. } | SimEvent::PrefetchWasted { .. }
            )
        })
        .count() as u64;
    assert_eq!(issued, p1.issued);
    assert_eq!(resolved, p1.hits + p1.wasted);
}

// ---------------------------------------------------------------------
// 1. Off (or nomination-starved) ⇒ invisible, property-tested.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An unreachable confidence threshold keeps the predictor learning
    /// but the nomination list empty on every block: the run must be
    /// byte-identical to prefetch-off across arbitrary workload shapes
    /// and machine sizes.
    #[test]
    fn unreachable_threshold_is_byte_identical_to_off(
        lo in 200u64..2_000,
        hi in 2_000u64..20_000,
        period in 2usize..5,
        repeats in 2usize..6,
        cg in 0u16..3,
        prc in 1u16..4,
    ) {
        let toy = mrts::ingest::model("toy").expect("builtin toy lowers");
        let catalog = toy
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let trace = synthetic_trace(
            &toy,
            &[Pattern::Burst { low: lo, high: hi, period }],
            repeats,
        );

        let (off_stats, off_events, off_pf) =
            run_with_events(&catalog, machine(cg, prc), &trace, &mut Mrts::new());
        prop_assert_eq!(off_pf, PrefetchStats::default());

        let mut starved = Mrts::with_config(prefetch_on(1.1));
        let (on_stats, on_events, on_pf) =
            run_with_events(&catalog, machine(cg, prc), &trace, &mut starved);

        prop_assert_eq!(on_pf.issued, 0, "threshold 1.1 can never be met");
        prop_assert_eq!(stats_bytes(&off_stats), stats_bytes(&on_stats));
        prop_assert_eq!(off_events, on_events);
        // The predictor still learned the block sequence underneath.
        prop_assert!(starved.flow().observations() > 0);
    }
}
