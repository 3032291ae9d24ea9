//! End-to-end integration tests: the full pipeline — application →
//! catalogue → video → trace → simulator → policies — across crates.

use mrts::arch::Resources;
use mrts::baselines::StaticPolicy;
use mrts::core::{Mrts, MrtsConfig};
use mrts::sim::{RiscOnlyPolicy, RunStats, RuntimePolicy, Simulator};
use mrts::workload::{Trace, TraceBuilder, VideoModel};
use mrts_bench::Testbed;

/// The encoder of the evaluation over the paper video (seed 1).
fn bed() -> Testbed {
    Testbed::new("h264", 1).unwrap()
}

#[test]
fn every_policy_executes_the_whole_trace() {
    let bed = bed();
    let combo = Resources::new(2, 2);
    let capacity = bed.machine(combo).unwrap().capacity();
    let expected: u64 = bed
        .trace
        .activations()
        .iter()
        .flat_map(|a| a.actual.iter())
        .map(|a| a.executions)
        .sum();
    let mut policies: Vec<Box<dyn RuntimePolicy>> = vec![
        Box::new(RiscOnlyPolicy::new()),
        Box::new(Mrts::with_config(MrtsConfig::rispp_like())),
        Box::new(StaticPolicy::loosely_coupled(
            &bed.catalog,
            capacity,
            &bed.trace,
        )),
        Box::new(StaticPolicy::offline_optimal(
            &bed.catalog,
            capacity,
            &bed.trace,
        )),
        Box::new(Mrts::with_config(MrtsConfig::online_optimal())),
        Box::new(Mrts::new()),
    ];
    for p in &mut policies {
        let stats = bed.run(combo, p.as_mut()).unwrap();
        assert_eq!(
            stats.total_executions(),
            expected,
            "{} must execute every kernel invocation",
            stats.policy
        );
        assert_eq!(stats.rejected_loads, 0, "{}", stats.policy);
        assert_eq!(stats.blocks.len(), bed.trace.len(), "{}", stats.policy);
    }
}

#[test]
fn policy_ordering_holds_on_multi_grained_machines() {
    let bed = bed();
    for combo in [
        Resources::new(1, 1),
        Resources::new(2, 2),
        Resources::new(3, 2),
    ] {
        let capacity = bed.machine(combo).unwrap().capacity();
        let risc = bed.run(combo, &mut RiscOnlyPolicy::new()).unwrap();
        let mrts = bed.run(combo, &mut Mrts::new()).unwrap();
        let optimal = bed
            .run(combo, &mut Mrts::with_config(MrtsConfig::online_optimal()))
            .unwrap();
        let offline = bed
            .run(
                combo,
                &mut StaticPolicy::offline_optimal(&bed.catalog, capacity, &bed.trace),
            )
            .unwrap();
        let morpheus = bed
            .run(
                combo,
                &mut StaticPolicy::loosely_coupled(&bed.catalog, capacity, &bed.trace),
            )
            .unwrap();
        let t = |s: &RunStats| s.total_execution_time().get();
        // Everyone beats plain RISC-mode on a machine with fabric.
        for s in [&mrts, &optimal, &offline, &morpheus] {
            assert!(t(s) < t(&risc), "{combo}: {} vs RISC", s.policy);
        }
        // mRTS beats both static schemes (Fig. 8's ordering).
        assert!(t(&mrts) < t(&offline), "{combo}: mRTS vs offline-optimal");
        assert!(t(&mrts) < t(&morpheus), "{combo}: mRTS vs Morpheus/4S");
        // The offline-optimal (MG-capable) never loses to the loosely
        // coupled scheme it strictly generalizes.
        assert!(t(&offline) <= t(&morpheus), "{combo}: offline vs Morpheus");
        // The online-optimal reference is at most a whisker behind mRTS.
        assert!(
            t(&optimal) as f64 <= t(&mrts) as f64 * 1.02,
            "{combo}: optimal {} vs mRTS {}",
            t(&optimal),
            t(&mrts)
        );
    }
}

#[test]
fn runs_are_deterministic() {
    let bed = bed();
    let combo = Resources::new(2, 3);
    let a = bed.run(combo, &mut Mrts::new()).unwrap();
    let b = bed.run(combo, &mut Mrts::new()).unwrap();
    assert_eq!(a, b);
    // And the trace itself regenerates identically.
    let encoder = mrts::ingest::model("h264").expect("builtin h264 lowers");
    let again = TraceBuilder::new(&encoder)
        .video(VideoModel::paper_default(1))
        .build();
    assert_eq!(bed.trace, again);
}

#[test]
fn zero_fabric_machine_degenerates_to_risc_for_all_policies() {
    let bed = bed();
    let combo = Resources::NONE;
    let risc = bed.run(combo, &mut RiscOnlyPolicy::new()).unwrap();
    let mrts = bed.run(combo, &mut Mrts::new()).unwrap();
    // Identical busy cycles; only the decision overhead differs.
    assert_eq!(risc.total_busy(), mrts.total_busy());
}

#[test]
fn other_applications_also_profit() {
    for name in ["fft", "cipher"] {
        let tb = Testbed::new(name, 5).unwrap();
        let risc = tb
            .run(Resources::new(1, 1), &mut RiscOnlyPolicy::new())
            .unwrap();
        let mrts = tb.run(Resources::new(1, 1), &mut Mrts::new()).unwrap();
        assert!(
            mrts.total_execution_time() < risc.total_execution_time(),
            "{name}: mRTS must accelerate"
        );
    }
}

#[test]
fn machine_state_persists_across_traces() {
    let bed = bed();
    let mut sim = Simulator::new(&bed.catalog, bed.machine(Resources::new(2, 2)).unwrap());
    let mut mrts = Mrts::new();
    let acts = bed.trace.activations();
    let first = Trace::new("a", acts[..24].to_vec());
    let second = Trace::new("b", acts[24..].to_vec());
    let s1 = sim.run_trace(&first, &mut mrts);
    let warm_units = sim.machine().free_resources();
    let s2 = sim.run_trace(&second, &mut mrts);
    // Fabric stayed warm between the segments: something was resident.
    assert!(warm_units.total() < sim.machine().capacity().total());
    // Both halves executed.
    assert!(s1.total_executions() > 0 && s2.total_executions() > 0);
    // Split run equals the single run (same machine state evolution).
    let whole = bed.run(Resources::new(2, 2), &mut Mrts::new()).unwrap();
    assert_eq!(
        whole.total_busy(),
        s1.total_busy() + s2.total_busy(),
        "split simulation must be seamless"
    );
}
