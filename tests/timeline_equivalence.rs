//! PR 5 refactor safety net: the Timeline-driven engine must compute the
//! **same statistics, byte for byte**, as the pre-refactor engine.
//!
//! Two layers of protection:
//!
//! 1. **Goldens** — `tests/goldens/timeline/*.json` hold the serde encoding
//!    of [`RunStats`] / [`MultitaskStats`] produced by the engine *before*
//!    the Timeline refactor (commit `a21d28e` lineage), for every policy in
//!    [`POLICY_NAMES`], fault-free and under an armed fault model, single-
//!    and multi-tenant. The current engine must reproduce them exactly.
//!    Regenerate deliberately with `UPDATE_GOLDENS=1 cargo test --test
//!    timeline_equivalence` — but any diff against the committed files is a
//!    behaviour change the refactor promised not to make.
//! 2. **Property tests** (second half of this file, added with the
//!    refactor) — attaching an event sink must not perturb the simulation,
//!    and the emitted event log must satisfy the spine invariants
//!    (monotone timestamps, balanced `BlockStart`/`BlockEnd` pairs,
//!    `LoadReady` at the time its `LoadIssued` promised).

use mrts::arch::{ArchParams, Cycles, FaultModel, Machine, Resources};
use mrts::baselines::{make_policy, PolicyTuning, ProfiledTotals, POLICY_NAMES};
use mrts::ise::IseCatalog;
use mrts::multitask::{run_multitask, run_multitask_with_events, MultitaskConfig, TenantSpec};
use mrts::sim::{MultitaskStats, RunStats, SimEvent, Simulator, VecSink};
use mrts::workload::apps::{CipherApp, FftApp};
use mrts::workload::{Trace, TraceBuilder, VideoModel, WorkloadModel};
use std::collections::HashMap;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("timeline")
}

/// Compares `json` against the committed golden `name`, or rewrites the
/// golden when `UPDATE_GOLDENS` is set.
fn check_golden(name: &str, json: &str) {
    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, json).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        json,
        expected.as_str(),
        "stats diverged from pre-refactor golden {name}"
    );
}

fn testbed(model: &dyn WorkloadModel, seed: u64) -> (String, IseCatalog, Trace) {
    let catalog = model
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("kernels are mappable");
    let trace = TraceBuilder::new(model)
        .video(VideoModel::paper_default(seed))
        .build();
    (model.application().name().to_owned(), catalog, trace)
}

/// One solo run: machine (optionally faulty), factory policy, full trace.
fn solo(
    catalog: &IseCatalog,
    combo: Resources,
    trace: &Trace,
    policy: &str,
    fault: Option<FaultModel>,
) -> RunStats {
    let machine = match fault {
        Some(fm) => Machine::with_fault_model(ArchParams::default(), combo, fm),
        None => Machine::new(ArchParams::default(), combo),
    }
    .expect("valid machine");
    let capacity = machine.capacity();
    let totals = ProfiledTotals::from_trace(trace);
    let mut p = make_policy(policy, catalog, capacity, &totals, PolicyTuning::default())
        .expect("known policy");
    Simulator::run(catalog, machine, trace, p.as_mut())
}

/// One two-tenant run (FFT + cipher) under the default config.
fn duo(policy: &str, fault: bool) -> MultitaskStats {
    let (name_a, cat_a, trace_a) = testbed(&FftApp::new(), 1);
    let (name_b, cat_b, trace_b) = testbed(&CipherApp::new(), 2);
    let mut spec_a = TenantSpec::new(name_a, &cat_a, &trace_a);
    let mut spec_b = TenantSpec::new(name_b, &cat_b, &trace_b).with_weight(2);
    if fault {
        spec_a = spec_a.with_fault_model(FaultModel::new(0.05, 42));
        spec_b = spec_b.with_fault_model(FaultModel::new(0.05, 43));
    }
    let cfg = MultitaskConfig {
        policy: policy.to_owned(),
        ..MultitaskConfig::default()
    };
    run_multitask(
        ArchParams::default(),
        Resources::new(3, 2),
        &[spec_a, spec_b],
        &cfg,
    )
    .expect("2-tenant run succeeds")
}

#[test]
fn solo_runstats_match_pre_refactor_goldens() {
    let (_, catalog, trace) = testbed(&FftApp::new(), 1);
    let combo = Resources::new(2, 2);
    for &policy in POLICY_NAMES {
        let stats = solo(&catalog, combo, &trace, policy, None);
        let json = serde_json::to_string(&stats).expect("serialise RunStats");
        check_golden(&format!("solo_{policy}"), &json);
    }
}

#[test]
fn solo_faulted_runstats_match_pre_refactor_goldens() {
    let (_, catalog, trace) = testbed(&FftApp::new(), 7);
    let combo = Resources::new(2, 2);
    for &policy in POLICY_NAMES {
        let stats = solo(
            &catalog,
            combo,
            &trace,
            policy,
            Some(FaultModel::new(0.05, 42)),
        );
        assert!(
            stats.failed_loads > 0 || stats.degraded_executions > 0 || policy == "risc",
            "fault model never fired for {policy}; golden degenerates to fault-free"
        );
        let json = serde_json::to_string(&stats).expect("serialise RunStats");
        check_golden(&format!("solo_fault_{policy}"), &json);
    }
}

#[test]
fn multitask_stats_match_pre_refactor_goldens() {
    for policy in ["mrts", "rispp"] {
        let stats = duo(policy, false);
        let json = serde_json::to_string(&stats).expect("serialise MultitaskStats");
        check_golden(&format!("multi_{policy}"), &json);
    }
}

// ---------------------------------------------------------------------
// Event-spine property tests
// ---------------------------------------------------------------------

/// Same run as [`solo`], but with a [`VecSink`] attached.
fn solo_with_events(
    catalog: &IseCatalog,
    combo: Resources,
    trace: &Trace,
    policy: &str,
    fault: Option<FaultModel>,
) -> (RunStats, Vec<(u32, SimEvent)>) {
    let machine = match fault {
        Some(fm) => Machine::with_fault_model(ArchParams::default(), combo, fm),
        None => Machine::new(ArchParams::default(), combo),
    }
    .expect("valid machine");
    let capacity = machine.capacity();
    let totals = ProfiledTotals::from_trace(trace);
    let mut p = make_policy(policy, catalog, capacity, &totals, PolicyTuning::default())
        .expect("known policy");
    let mut sim = Simulator::new(catalog, machine);
    let sink = VecSink::new();
    sim.attach_events(0, Box::new(sink.clone()));
    let stats = sim.run_trace(trace, p.as_mut());
    sim.finish_events();
    (stats, sink.take())
}

/// The spine invariants every event log must satisfy:
///
/// 1. timestamps are non-decreasing **per tenant** (`RepartitionGranted`
///    and `DegradeStep` are excluded: both are arbiter-side notifications
///    stamped with the global clock, which may legitimately run ahead of
///    a descheduled tenant's still-deferred fabric completions),
/// 2. `BlockStart`/`BlockEnd` are balanced and never nested,
/// 3. every `LoadReady` lands exactly when a prior `LoadIssued` for the
///    same unit promised (`at == ready_at`, `issued.at <= ready_at`),
///    and every promise is eventually kept.
fn assert_spine_invariants(events: &[(u32, SimEvent)]) {
    let mut last: HashMap<u32, Cycles> = HashMap::new();
    let mut depth: HashMap<u32, i64> = HashMap::new();
    let mut promised: HashMap<u32, Vec<(mrts::ise::UnitId, Cycles)>> = HashMap::new();
    for (i, (tenant, ev)) in events.iter().enumerate() {
        if !matches!(
            ev,
            SimEvent::RepartitionGranted { .. } | SimEvent::DegradeStep { .. }
        ) {
            let prev = last.entry(*tenant).or_insert(Cycles::ZERO);
            assert!(
                ev.at() >= *prev,
                "event {i} for tenant {tenant} at {:?} precedes {:?}",
                ev.at(),
                prev
            );
            *prev = ev.at();
        }
        match ev {
            SimEvent::BlockStart { .. } => {
                let d = depth.entry(*tenant).or_default();
                *d += 1;
                assert_eq!(*d, 1, "nested BlockStart for tenant {tenant}");
            }
            SimEvent::BlockEnd { .. } => {
                let d = depth.entry(*tenant).or_default();
                *d -= 1;
                assert_eq!(*d, 0, "BlockEnd without BlockStart for tenant {tenant}");
            }
            SimEvent::LoadIssued {
                at, unit, ready_at, ..
            } => {
                assert!(ready_at >= at, "load ready before it was issued");
                promised
                    .entry(*tenant)
                    .or_default()
                    .push((*unit, *ready_at));
            }
            SimEvent::LoadReady { at, unit } => {
                let open = promised.entry(*tenant).or_default();
                let pos = open
                    .iter()
                    .position(|&(u, r)| u == *unit && r == *at)
                    .unwrap_or_else(|| {
                        panic!("LoadReady({unit:?}, {at:?}) without a matching LoadIssued")
                    });
                open.remove(pos);
            }
            _ => {}
        }
    }
    for (tenant, d) in depth {
        assert_eq!(d, 0, "unbalanced BlockStart/BlockEnd for tenant {tenant}");
    }
    for (tenant, open) in promised {
        assert!(
            open.is_empty(),
            "tenant {tenant} has {} LoadIssued promises without a LoadReady",
            open.len()
        );
    }
}

#[test]
fn attaching_a_sink_never_perturbs_the_run() {
    let (_, catalog, trace) = testbed(&FftApp::new(), 1);
    let combo = Resources::new(2, 2);
    for &policy in POLICY_NAMES {
        let bare = solo(&catalog, combo, &trace, policy, None);
        let (observed, events) = solo_with_events(&catalog, combo, &trace, policy, None);
        assert_eq!(
            serde_json::to_string(&bare).expect("serialise"),
            serde_json::to_string(&observed).expect("serialise"),
            "recording changed the statistics for {policy}"
        );
        assert!(!events.is_empty(), "{policy} emitted no events");
        assert_spine_invariants(&events);
    }
}

#[test]
fn solo_event_spine_invariants_hold_under_faults() {
    let (_, catalog, trace) = testbed(&FftApp::new(), 7);
    let combo = Resources::new(2, 2);
    for &policy in POLICY_NAMES {
        let fault = Some(FaultModel::new(0.05, 42));
        let bare = solo(&catalog, combo, &trace, policy, fault.clone());
        let (observed, events) = solo_with_events(&catalog, combo, &trace, policy, fault);
        assert_eq!(
            serde_json::to_string(&bare).expect("serialise"),
            serde_json::to_string(&observed).expect("serialise"),
            "recording changed the faulted statistics for {policy}"
        );
        assert_spine_invariants(&events);
        if bare.failed_loads > 0 || bare.degraded_executions > 0 {
            assert!(
                events
                    .iter()
                    .any(|(_, e)| matches!(e, SimEvent::FaultDetected { .. })),
                "{policy} reported faults but the spine has no FaultDetected"
            );
        }
    }
}

#[test]
fn multitask_event_spine_is_per_tenant_monotone() {
    let (name_a, cat_a, trace_a) = testbed(&FftApp::new(), 1);
    let (name_b, cat_b, trace_b) = testbed(&CipherApp::new(), 2);
    let specs = [
        TenantSpec::new(name_a, &cat_a, &trace_a),
        TenantSpec::new(name_b, &cat_b, &trace_b).with_weight(2),
    ];
    let cfg = MultitaskConfig::default();
    let budget = Resources::new(3, 2);
    let bare =
        run_multitask(ArchParams::default(), budget, &specs, &cfg).expect("2-tenant run succeeds");
    let mut sink = VecSink::new();
    let observed =
        run_multitask_with_events(ArchParams::default(), budget, &specs, &cfg, &mut sink)
            .expect("2-tenant run succeeds");
    assert_eq!(
        serde_json::to_string(&bare).expect("serialise"),
        serde_json::to_string(&observed).expect("serialise"),
        "recording changed the multitask statistics"
    );
    let events = sink.take();
    assert_spine_invariants(&events);
    for tenant in [0u32, 1] {
        assert!(
            events
                .iter()
                .any(|&(t, ref e)| t == tenant && matches!(e, SimEvent::TenantDispatch { .. })),
            "tenant {tenant} was never dispatched"
        );
    }
    assert!(
        events
            .iter()
            .any(|(_, e)| matches!(e, SimEvent::TenantPreempt { .. })),
        "two runnable tenants must preempt each other at least once"
    );
}

#[test]
fn multitask_faulted_stats_match_pre_refactor_goldens() {
    let stats = duo("mrts", true);
    assert!(
        stats
            .tenants
            .iter()
            .any(|t| t.run.failed_loads > 0 || t.run.degraded_executions > 0),
        "fault models never fired; golden degenerates to fault-free"
    );
    let json = serde_json::to_string(&stats).expect("serialise MultitaskStats");
    check_golden("multi_fault_mrts", &json);
}
