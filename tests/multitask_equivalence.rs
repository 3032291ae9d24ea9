//! A multi-tenant run with exactly one tenant must degenerate to the
//! plain single-application simulation: the runner builds the tenant's
//! machine as `NONE` + `resize_capacity(full slice)` (identical container
//! ids), the first dispatch is free (switch costs only apply on tenant
//! *changes*), and the resource-slice cap equals the machine capacity (an
//! identity bound). This test pins that contract: the embedded
//! [`RunStats`] of a 1-tenant `run_multitask` is **byte-identical**
//! (via `PartialEq` *and* the serde encoding) to `Simulator::run` on the
//! same catalogue/machine/trace — fault-free and under an armed fault
//! model — for every policy the factory knows.

use mrts::arch::{ArchParams, Cycles, FaultModel, Machine, Resources};
use mrts::baselines::POLICY_NAMES;
use mrts::ise::IseCatalog;
use mrts::multitask::{run_multitask, ArbiterPolicy, MultitaskConfig, SchedulerKind, TenantSpec};
use mrts::sim::{RunStats, Simulator};
use mrts::workload::synthetic::{synthetic_trace, Pattern};
use mrts::workload::{Trace, WorkloadModel};

/// Builds (name, catalogue, paper-video trace) for a workload model.
fn testbed(spec: &str, seed: u64) -> (String, IseCatalog, Trace) {
    let tb = mrts_bench::Testbed::new(spec, seed).unwrap();
    (tb.name().to_owned(), tb.catalog, tb.trace)
}

/// The solo reference: the ordinary single-application engine.
fn solo(catalog: &IseCatalog, combo: Resources, trace: &Trace, policy: &str) -> RunStats {
    let machine = Machine::new(ArchParams::default(), combo).expect("valid machine");
    let capacity = machine.capacity();
    let mut p =
        mrts::baselines::make_policy(policy, catalog, capacity, trace, None).expect("known policy");
    Simulator::run(catalog, machine, trace, p.as_mut())
}

/// The 1-tenant multitask run under the given arbiter/scheduler pair.
fn multi(
    name: &str,
    catalog: &IseCatalog,
    combo: Resources,
    trace: &Trace,
    policy: &str,
    scheduler: SchedulerKind,
    arbiter: ArbiterPolicy,
) -> mrts::sim::MultitaskStats {
    let specs = [TenantSpec::new(name.to_owned(), catalog, trace)];
    let cfg = MultitaskConfig {
        policy: policy.to_owned(),
        arbiter,
        scheduler,
        ..MultitaskConfig::default()
    };
    run_multitask(ArchParams::default(), combo, &specs, &cfg).expect("1-tenant run succeeds")
}

/// Asserts structural and byte-level equality of the two stat blocks.
fn assert_identical(solo: &RunStats, stats: &mrts::sim::MultitaskStats) {
    let tenant = &stats.tenants[0];
    assert_eq!(&tenant.run, solo, "embedded RunStats differs from solo run");
    // Byte-identical through the serde encoding too — PartialEq on f64-free
    // structs is exact, but the JSON round-trip catches field reordering
    // or lossy conversions that a future refactor might introduce.
    let a = serde_json::to_string(&tenant.run).expect("serialise multitask RunStats");
    let b = serde_json::to_string(solo).expect("serialise solo RunStats");
    assert_eq!(a, b, "serde encodings differ");
    // Scheduling-level quantities must be trivial for a lone tenant.
    assert_eq!(tenant.context_switches, 0);
    assert_eq!(tenant.switch_cycles, Cycles::ZERO);
    assert_eq!(tenant.waiting_cycles, Cycles::ZERO);
    assert_eq!(tenant.repartition_evictions, 0);
    assert_eq!(stats.makespan, tenant.turnaround);
    assert_eq!(stats.repartitions, 0);
}

#[test]
fn one_tenant_equals_solo_for_every_policy() {
    let (name, catalog, trace) = testbed("fft", 1);
    let combo = Resources::new(2, 2);
    for &policy in POLICY_NAMES {
        let reference = solo(&catalog, combo, &trace, policy);
        let stats = multi(
            &name,
            &catalog,
            combo,
            &trace,
            policy,
            SchedulerKind::WeightedFair,
            ArbiterPolicy::Dynamic,
        );
        assert_identical(&reference, &stats);
    }
}

#[test]
fn one_tenant_equals_solo_across_schedulers_and_arbiters() {
    let (name, catalog, trace) = testbed("cipher", 3);
    let combo = Resources::new(3, 1);
    let reference = solo(&catalog, combo, &trace, "mrts");
    for scheduler in [
        SchedulerKind::WeightedFair,
        SchedulerKind::EarliestDeadline,
        SchedulerKind::LeastLaxity,
    ] {
        for arbiter in [ArbiterPolicy::Static, ArbiterPolicy::Dynamic] {
            let stats = multi(&name, &catalog, combo, &trace, "mrts", scheduler, arbiter);
            assert_identical(&reference, &stats);
        }
    }
}

#[test]
fn one_tenant_equals_solo_on_synthetic_toy_trace() {
    let toy = mrts::ingest::model("toy").expect("builtin toy lowers");
    let catalog = toy
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("toy kernels are mappable");
    let trace = synthetic_trace(&toy, &[Pattern::Ramp { from: 600, to: 40 }], 6);
    for combo in [Resources::NONE, Resources::new(1, 0), Resources::new(2, 2)] {
        let reference = solo(&catalog, combo, &trace, "mrts");
        let stats = multi(
            "toy",
            &catalog,
            combo,
            &trace,
            "mrts",
            SchedulerKind::WeightedFair,
            ArbiterPolicy::Dynamic,
        );
        assert_identical(&reference, &stats);
    }
}

#[test]
fn one_tenant_equals_solo_under_fault_injection() {
    let (name, catalog, trace) = testbed("fft", 7);
    let combo = Resources::new(2, 2);
    let fault = FaultModel::new(0.05, 42);

    let machine = Machine::with_fault_model(ArchParams::default(), combo, fault.clone())
        .expect("valid machine");
    let capacity = machine.capacity();
    let mut p = mrts::baselines::make_policy("mrts", &catalog, capacity, &trace, None)
        .expect("known policy");
    let reference = Simulator::run(&catalog, machine, &trace, p.as_mut());

    let specs = [TenantSpec::new(name, &catalog, &trace).with_fault_model(fault)];
    let cfg = MultitaskConfig::default();
    let stats =
        run_multitask(ArchParams::default(), combo, &specs, &cfg).expect("1-tenant run succeeds");
    assert_identical(&reference, &stats);
    // The fault model must actually have fired, otherwise this test
    // degenerates to the fault-free case.
    assert!(
        stats.tenants[0].run.failed_loads > 0 || stats.tenants[0].run.degraded_executions > 0,
        "fault model never fired; raise the rate"
    );
}
