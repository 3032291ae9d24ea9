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
//!    behaviour change the refactor promised not to make. The admission
//!    and ladder goldens (`multi_admission_*`, `multi_ladder_spine`, last
//!    section) pin the multitask runner the same way: they were recorded
//!    before its up-front and mid-run session paths became one. The spine
//!    digests (`multi_ladder_spine`, `solo_fault_spine`,
//!    `fleet_spine`) together cover every `SimEvent` variant and pin the
//!    JSONL bytes of each. The retirement goldens (`fleet_churn_*`, one
//!    per core scheduler, and `multi_queue_pinned_spine`) were recorded
//!    while the runner still kept every departed tenant; they pin that
//!    retiring departed sessions changes no pick, grant or event.
//! 2. **Property tests** (second half of this file, added with the
//!    refactor) — attaching an event sink must not perturb the simulation,
//!    and the emitted event log must satisfy the spine invariants
//!    (monotone timestamps, balanced `BlockStart`/`BlockEnd` pairs,
//!    `LoadReady` at the time its `LoadIssued` promised).

use mrts::arch::{ArchParams, Cycles, FaultModel, Machine, Resources};
use mrts::baselines::{make_policy, POLICY_NAMES};
use mrts::core::Mrts;
use mrts::fleet::{
    poisson_arrivals, run_fleet, AppRegistry, FleetConfig, FleetOutcome, PoissonConfig,
};
use mrts::ise::IseCatalog;
use mrts::multitask::{
    run_multitask, run_multitask_with_events, AdmissionPolicy, MultitaskConfig, SchedulerKind, Slo,
    TenantRequest, TenantSpec,
};
use mrts::sim::{events_to_jsonl, MultitaskStats, RunStats, SimEvent, Simulator, VecSink};
use mrts::workload::{Trace, TraceBuilder, WorkloadModel};
use std::collections::{BTreeSet, HashMap};
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

fn testbed(spec: &str, seed: u64) -> (String, IseCatalog, Trace) {
    let tb = mrts_bench::Testbed::new(spec, seed).unwrap();
    (tb.name().to_owned(), tb.catalog, tb.trace)
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
    let mut p = make_policy(policy, catalog, capacity, trace, None).expect("known policy");
    Simulator::run(catalog, machine, trace, p.as_mut())
}

/// One two-tenant run (FFT + cipher) under the default config.
fn duo(policy: &str, fault: bool) -> MultitaskStats {
    let (name_a, cat_a, trace_a) = testbed("fft", 1);
    let (name_b, cat_b, trace_b) = testbed("cipher", 2);
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
    let (_, catalog, trace) = testbed("fft", 1);
    let combo = Resources::new(2, 2);
    for &policy in POLICY_NAMES {
        let stats = solo(&catalog, combo, &trace, policy, None);
        let json = serde_json::to_string(&stats).expect("serialise RunStats");
        check_golden(&format!("solo_{policy}"), &json);
    }
}

#[test]
fn solo_faulted_runstats_match_pre_refactor_goldens() {
    let (_, catalog, trace) = testbed("fft", 7);
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
    let mut p = make_policy(policy, catalog, capacity, trace, None).expect("known policy");
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
    let (_, catalog, trace) = testbed("fft", 1);
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
    let (_, catalog, trace) = testbed("fft", 7);
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
    let (name_a, cat_a, trace_a) = testbed("fft", 1);
    let (name_b, cat_b, trace_b) = testbed("cipher", 2);
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

// ---------------------------------------------------------------------
// Admission and ladder goldens
// ---------------------------------------------------------------------

/// Four tenants on a (3 CG, 2 PRC) machine under EDF, priced against an
/// even four-way split (per-block best latency: FFT 176,661 cycles, cipher
/// 148,148):
///
/// 0. cipher, soft, 250k-cycle period (≈59 % of the core),
/// 1. FFT, hard, 290k-cycle period (≈61 %),
/// 2. FFT, no SLO (0 %),
/// 3. cipher, soft, 100k-cycle period (≈148 % — infeasible on its own).
///
/// Criticality order admits tenant 1 ahead of tenant 0, which does not
/// fit next to it. Under `Queue`, tenant 0 is admitted by the retry when
/// tenant 1 finishes (tenant 2 keeps the core busy meanwhile), and tenant
/// 3 only enters through the idle-core force-admit. Under `Reject`,
/// tenants 0 and 3 never run and their slices are redistributed at t=0.
fn admission_mix(admission: AdmissionPolicy) -> MultitaskStats {
    let (fft, cat_fft, trace_fft) = testbed("fft", 1);
    let (cipher, cat_cipher, trace_cipher) = testbed("cipher", 2);
    let periodic =
        |crit: &str, period: u64| -> Slo { format!("{crit}:{period}").parse().expect("valid SLO") };
    let specs = [
        TenantSpec::new(cipher.clone(), &cat_cipher, &trace_cipher)
            .with_slo(periodic("soft", 250_000)),
        TenantSpec::new(fft.clone(), &cat_fft, &trace_fft).with_slo(periodic("hard", 290_000)),
        TenantSpec::new(fft, &cat_fft, &trace_fft),
        TenantSpec::new(cipher, &cat_cipher, &trace_cipher).with_slo(periodic("soft", 100_000)),
    ];
    let cfg = MultitaskConfig {
        scheduler: SchedulerKind::EarliestDeadline,
        admission,
        repartition_min_demand: Cycles::ZERO,
        ..MultitaskConfig::default()
    };
    run_multitask(ArchParams::default(), Resources::new(3, 2), &specs, &cfg)
        .expect("admission run succeeds")
}

#[test]
fn admission_reject_stats_match_goldens() {
    let stats = admission_mix(AdmissionPolicy::Reject);
    let verdicts: Vec<&str> = stats.tenants.iter().map(|t| t.admission.as_str()).collect();
    assert_eq!(verdicts, ["rejected", "admitted", "admitted", "rejected"]);
    assert_eq!(stats.tenants[0].run.total_executions(), 0);
    assert_eq!(stats.tenants[3].run.total_executions(), 0);
    let json = serde_json::to_string(&stats).expect("serialise MultitaskStats");
    check_golden("multi_admission_reject", &json);
}

#[test]
fn admission_queue_stats_match_goldens() {
    let stats = admission_mix(AdmissionPolicy::Queue);
    let verdicts: Vec<&str> = stats.tenants.iter().map(|t| t.admission.as_str()).collect();
    assert_eq!(verdicts, ["queued", "admitted", "admitted", "queued"]);
    let turnaround: Vec<Cycles> = stats.tenants.iter().map(|t| t.turnaround).collect();
    assert!(
        turnaround[1] < turnaround[0] && turnaround[0] < turnaround[2],
        "tenant 0 must be admitted by the retry while tenant 2 still runs: {turnaround:?}"
    );
    assert!(
        turnaround[2] < turnaround[3],
        "tenant 3 must wait for the idle-core force-admit: {turnaround:?}"
    );
    let json = serde_json::to_string(&stats).expect("serialise MultitaskStats");
    check_golden("multi_admission_queue", &json);
}

/// 64-bit FNV-1a, the digest of a whole event spine.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One golden line for a whole spine: its event count and the FNV-1a
/// digest of its `events_to_jsonl` encoding.
fn spine_digest(events: &[(u32, SimEvent)]) -> String {
    let spine = events_to_jsonl(events).expect("serialise spine");
    format!(
        "{{\"events\":{},\"fnv1a\":\"{:016x}\"}}\n",
        events.len(),
        fnv1a(spine.as_bytes())
    )
}

/// A three-tenant SLO run on a (1 CG, 1 PRC) machine in which the ladder
/// demotes and promotes several times and departures regrant fabric.
fn ladder_run() -> (MultitaskStats, Vec<(u32, SimEvent)>) {
    let (fft, cat_fft, trace_fft) = testbed("fft", 1);
    let (cipher, cat_cipher, trace_cipher) = testbed("cipher", 2);
    let (_, cat_bg, trace_bg) = testbed("fft", 3);
    let specs = [
        TenantSpec::new(fft.clone(), &cat_fft, &trace_fft)
            .with_slo("hard:1200000".parse().expect("valid SLO")),
        TenantSpec::new(cipher, &cat_cipher, &trace_cipher)
            .with_slo("soft:0:12800000".parse().expect("valid SLO")),
        TenantSpec::new(fft, &cat_bg, &trace_bg),
    ];
    let cfg = MultitaskConfig {
        scheduler: SchedulerKind::EarliestDeadline,
        repartition_min_demand: Cycles::ZERO,
        ..MultitaskConfig::default()
    };
    let mut sink = VecSink::new();
    let stats = run_multitask_with_events(
        ArchParams::default(),
        Resources::new(1, 1),
        &specs,
        &cfg,
        &mut sink,
    )
    .expect("ladder run succeeds");
    (stats, sink.take())
}

/// The golden of [`ladder_run`] keeps every ladder and regrant event
/// verbatim, in spine order (same-timestamp `DegradeStep`/
/// `RepartitionGranted` pairs included), plus the length and FNV-1a
/// digest of the whole spine.
#[test]
fn ladder_event_spine_matches_golden() {
    let (stats, events) = ladder_run();
    assert!(stats.degrade_steps() >= 2, "the ladder must demote");
    assert_eq!(stats.degrade_steps(), stats.promote_steps());
    let mut golden = String::new();
    for (tenant, ev) in &events {
        if matches!(
            ev,
            SimEvent::DegradeStep { .. } | SimEvent::RepartitionGranted { .. }
        ) {
            golden.push_str(&events_to_jsonl(&[(*tenant, ev.clone())]).expect("serialise"));
        }
    }
    golden.push_str(&spine_digest(&events));
    check_golden("multi_ladder_spine", &golden);
}

/// H.264 alone on a (2 CG, 16 PRC) machine with a fault model that fires
/// load CRC failures often enough to exhaust the retry budget, plus
/// transient execution upsets and lost containers.
fn solo_fault_spine() -> Vec<(u32, SimEvent)> {
    let enc = mrts::ingest::model("h264").expect("builtin h264 lowers");
    let catalog = enc
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("kernels are mappable");
    let trace = TraceBuilder::new(&enc).build();
    let fault = FaultModel::with_rates(0.2, 1e-4, 0.01, 7);
    let machine = Machine::with_fault_model(ArchParams::default(), Resources::new(2, 16), fault)
        .expect("valid machine");
    let mut policy = Mrts::new();
    let mut sim = Simulator::new(&catalog, machine);
    let sink = VecSink::new();
    sim.attach_events(0, Box::new(sink.clone()));
    sim.run_trace(&trace, &mut policy);
    sim.finish_events();
    sink.take()
}

/// A small open-loop fleet of `toy` sessions on two shards, recorded.
fn fleet_spine() -> Vec<(u32, SimEvent)> {
    let params = ArchParams::default();
    let registry = AppRegistry::new(&params, &["toy"], 2, 5, 40).expect("toy registry builds");
    let records = poisson_arrivals(&PoissonConfig {
        sessions: 12,
        mean_gap: 50_000,
        variants: 2,
        ..PoissonConfig::default()
    });
    let cfg = FleetConfig {
        fabrics: 2,
        record_events: true,
        ..FleetConfig::default()
    };
    run_fleet(&params, &registry, &records, &cfg)
        .expect("fleet run succeeds")
        .events
}

#[test]
fn solo_fault_spine_matches_golden() {
    check_golden("solo_fault_spine", &spine_digest(&solo_fault_spine()));
}

#[test]
fn fleet_spine_matches_golden() {
    check_golden("fleet_spine", &spine_digest(&fleet_spine()));
}

/// The variant name of an event; the exhaustive `match` makes a new
/// variant fail to compile here until it is counted in
/// [`SIM_EVENT_VARIANTS`].
fn variant_name(ev: &SimEvent) -> &'static str {
    match ev {
        SimEvent::BlockStart { .. } => "BlockStart",
        SimEvent::LoadIssued { .. } => "LoadIssued",
        SimEvent::LoadReady { .. } => "LoadReady",
        SimEvent::LoadRejected { .. } => "LoadRejected",
        SimEvent::EpochBegin { .. } => "EpochBegin",
        SimEvent::ExecBatch { .. } => "ExecBatch",
        SimEvent::FaultDetected { fabric: None, .. } => "FaultDetected(fabric: None)",
        SimEvent::FaultDetected {
            fabric: Some(_), ..
        } => "FaultDetected(fabric: Some)",
        SimEvent::FaultRecovered { .. } => "FaultRecovered",
        SimEvent::TenantDispatch { .. } => "TenantDispatch",
        SimEvent::TenantPreempt { .. } => "TenantPreempt",
        SimEvent::RepartitionGranted { .. } => "RepartitionGranted",
        SimEvent::DeadlineMiss { .. } => "DeadlineMiss",
        SimEvent::DegradeStep { .. } => "DegradeStep",
        SimEvent::SessionAdmitted { .. } => "SessionAdmitted",
        SimEvent::SessionDeparted { .. } => "SessionDeparted",
        SimEvent::BlockEnd { .. } => "BlockEnd",
    }
}

/// Number of distinct [`variant_name`]s: the 16 `SimEvent` variants, with
/// `FaultDetected` counted once per `fabric` shape.
const SIM_EVENT_VARIANTS: usize = 17;

/// The variant names present in a spine.
fn variant_names(events: &[(u32, SimEvent)]) -> BTreeSet<&'static str> {
    events.iter().map(|(_, ev)| variant_name(ev)).collect()
}

/// The three pinned spines — ladder, solo with faults, fleet —
/// together hold every `SimEvent` variant, so their digests pin the bytes
/// of every variant's encoding.
#[test]
fn pinned_spines_cover_every_variant() {
    let solo = variant_names(&solo_fault_spine());
    for name in [
        "FaultDetected(fabric: None)",
        "FaultDetected(fabric: Some)",
        "FaultRecovered",
        "LoadRejected",
    ] {
        assert!(solo.contains(name), "the solo spine has no {name}");
    }
    let fleet = variant_names(&fleet_spine());
    for name in ["SessionAdmitted", "SessionDeparted"] {
        assert!(fleet.contains(name), "the fleet spine has no {name}");
    }
    let mut seen = variant_names(&ladder_run().1);
    seen.extend(solo);
    seen.extend(fleet);
    assert_eq!(
        seen.len(),
        SIM_EVENT_VARIANTS,
        "the pinned spines miss a variant; seen: {seen:?}"
    );
}

// ---------------------------------------------------------------------
// Tenant-retirement goldens
// ---------------------------------------------------------------------

/// One golden line for a fleet run: the spine digest plus FNV-1a digests
/// of the serde encodings of its `FleetStats` and per-shard
/// `MultitaskStats`, and the counters that show which paths it took.
fn fleet_digest(out: &FleetOutcome) -> String {
    let fleet = serde_json::to_string(&out.stats).expect("serialise FleetStats");
    let shards = serde_json::to_string(&out.shards).expect("serialise MultitaskStats");
    let sum = |f: fn(&MultitaskStats) -> u64| out.shards.iter().map(f).sum::<u64>();
    format!(
        "{{\"accepted\":{},\"rejected\":{},\"queued\":{},\"degrade_steps\":{},\"deadline_misses\":{},\"repartitions\":{},\"fleet_fnv1a\":\"{:016x}\",\"shards_fnv1a\":\"{:016x}\"}}\n{}",
        out.stats.accepted,
        out.stats.rejected,
        out.stats.sessions.iter().filter(|s| s.queued).count(),
        sum(MultitaskStats::degrade_steps),
        sum(MultitaskStats::deadline_misses),
        sum(|s| s.repartitions),
        fnv1a(fleet.as_bytes()),
        fnv1a(shards.as_bytes()),
        spine_digest(&out.events)
    )
}

/// A 300-session open-loop churn of fft and cipher sessions on two tight
/// (2 CG, 2 PRC) shards under `scheduler`, recorded: best-effort sessions
/// mixed with hard session deadlines and soft block periods tight enough
/// that the degradation ladder lends and repays fabric while sessions
/// arrive, queue and depart.
fn churn_run(scheduler: SchedulerKind) -> FleetOutcome {
    let params = ArchParams::default();
    let registry =
        AppRegistry::new(&params, &["fft", "cipher"], 4, 3, 12).expect("fft+cipher registry");
    let slo = |s: &str| Some(s.parse::<Slo>().expect("valid SLO"));
    let records = poisson_arrivals(&PoissonConfig {
        seed: 5,
        sessions: 300,
        mean_gap: 2_500_000,
        mix: vec![
            TenantRequest {
                app: "fft".into(),
                weight: 1,
                slo: None,
            },
            TenantRequest {
                app: "cipher".into(),
                weight: 2,
                slo: None,
            },
            TenantRequest {
                app: "fft".into(),
                weight: 1,
                slo: slo("hard:0:6000000"),
            },
            TenantRequest {
                app: "cipher".into(),
                weight: 1,
                slo: slo("soft:300000"),
            },
        ],
        variants: 4,
    });
    let cfg = FleetConfig {
        multitask: MultitaskConfig {
            scheduler,
            repartition_min_demand: Cycles::new(50_000),
            ..MultitaskConfig::default()
        },
        fabrics: 2,
        budget: Resources::new(2, 2),
        record_events: true,
        ..FleetConfig::default()
    };
    run_fleet(&params, &registry, &records, &cfg).expect("churn run succeeds")
}

#[test]
fn fleet_churn_matches_goldens_under_every_scheduler() {
    for (label, scheduler) in [
        ("wfq", SchedulerKind::WeightedFair),
        ("edf", SchedulerKind::EarliestDeadline),
        ("llf", SchedulerKind::LeastLaxity),
    ] {
        let out = churn_run(scheduler);
        let degrade: u64 = out.shards.iter().map(MultitaskStats::degrade_steps).sum();
        assert!(degrade > 0, "{label}: the ladder never lent fabric");
        assert!(
            out.stats.sessions.iter().any(|s| s.queued),
            "{label}: no session queued"
        );
        check_golden(&format!("fleet_churn_{label}"), &fleet_digest(&out));
    }
}

/// The [`admission_mix`] tenants under `Queue` admission on a recorded
/// run, each on a fabric slice whose loads kill containers now and then:
/// tenants finish holding permanently failed slots, which stay pinned in
/// the arbiter while the queued and remaining sessions run on.
fn pinned_queue_run() -> (MultitaskStats, Vec<(u32, SimEvent)>) {
    let (fft, cat_fft, trace_fft) = testbed("fft", 1);
    let (cipher, cat_cipher, trace_cipher) = testbed("cipher", 2);
    let periodic =
        |crit: &str, period: u64| -> Slo { format!("{crit}:{period}").parse().expect("valid SLO") };
    let faults = |seed| FaultModel::with_rates(0.1, 0.0, 0.3, seed);
    let specs = [
        TenantSpec::new(cipher.clone(), &cat_cipher, &trace_cipher)
            .with_slo(periodic("soft", 250_000))
            .with_fault_model(faults(11)),
        TenantSpec::new(fft.clone(), &cat_fft, &trace_fft)
            .with_slo(periodic("hard", 290_000))
            .with_fault_model(faults(12)),
        TenantSpec::new(fft, &cat_fft, &trace_fft).with_fault_model(faults(13)),
        TenantSpec::new(cipher, &cat_cipher, &trace_cipher)
            .with_slo(periodic("soft", 100_000))
            .with_fault_model(faults(14)),
    ];
    let cfg = MultitaskConfig {
        scheduler: SchedulerKind::EarliestDeadline,
        admission: AdmissionPolicy::Queue,
        repartition_min_demand: Cycles::ZERO,
        ..MultitaskConfig::default()
    };
    let mut sink = VecSink::new();
    let stats = run_multitask_with_events(
        ArchParams::default(),
        Resources::new(3, 2),
        &specs,
        &cfg,
        &mut sink,
    )
    .expect("pinned-slot run succeeds");
    (stats, sink.take())
}

#[test]
fn queued_batch_with_pinned_failed_slots_matches_golden() {
    let (stats, events) = pinned_queue_run();
    let verdicts: Vec<&str> = stats.tenants.iter().map(|t| t.admission.as_str()).collect();
    assert_eq!(verdicts, ["queued", "admitted", "admitted", "queued"]);
    assert!(
        stats
            .tenants
            .iter()
            .any(|t| t.run.blacklisted_containers > 0 && t.turnaround < stats.makespan),
        "no tenant finished early holding permanently failed slots"
    );
    let mut golden = serde_json::to_string(&stats).expect("serialise MultitaskStats");
    golden.push('\n');
    golden.push_str(&spine_digest(&events));
    check_golden("multi_queue_pinned_spine", &golden);
}
