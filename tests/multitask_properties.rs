//! Property-based tests of the multi-tenant run-time: the fabric arbiter
//! must always hand out a disjoint partition that fits inside the pool
//! (conservation of fabric, retired tenants' pinned slots included), the
//! weighted-fair scheduler must never
//! starve a runnable tenant, and preempting a tenant must be invisible to
//! its reconfiguration state (descheduled time passed in many small
//! `advance_to` steps is identical to one big step — the DMA-driven
//! configuration ports stream regardless of who owns the core). On top of
//! that, the SLO machinery composed with fault injection must stay
//! degrade-don't-drop: whatever the scheduler, fault rate and deadline
//! pressure, every admitted tenant finishes its whole trace, every ladder
//! loan is repaid, faults never leak across tenant boundaries, and the
//! run stays byte-deterministic.

use mrts::arch::{ArchParams, Cycles, FaultModel, Machine, Resources};
use mrts::core::Mrts;
use mrts::multitask::{
    run_multitask, ArbiterPolicy, Criticality, FabricArbiter, MultitaskConfig, Scheduler,
    SchedulerKind, Slo, SloSnapshot, TenantSpec, WeightedFair,
};
use mrts::sim::{RunStats, Simulator};
use mrts::workload::synthetic::{synthetic_trace, Pattern};
use mrts::workload::WorkloadModel;
use proptest::prelude::*;

/// No deadline or laxity information: what a deadline-blind discipline
/// such as WFQ sees.
const BLIND: SloSnapshot<'static> = SloSnapshot {
    deadlines: &[],
    laxities: &[],
};

/// `n` tenants on the runner's up-front partition: an even split of
/// `pool`.
fn partitioned(policy: ArbiterPolicy, pool: Resources, n: usize) -> FabricArbiter {
    let mut arbiter = FabricArbiter::empty(policy, pool);
    for slice in pool.split_even(n) {
        arbiter.admit(slice);
    }
    arbiter
}

/// Sum of a slice list, for conservation checks.
fn total(slices: &[Resources]) -> Resources {
    slices.iter().fold(Resources::NONE, |acc, &s| acc + s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After construction the partition covers the pool *exactly* (no slot
    /// lost, none invented) under every arbiter policy, and every slice
    /// fits inside the pool — the "disjoint and within capacity"
    /// invariant.
    #[test]
    fn arbiter_partition_covers_pool_exactly(
        cg in 0u16..24,
        prc in 0u16..8,
        n in 1usize..6,
        policy_ix in 0usize..2,
    ) {
        let policy = [ArbiterPolicy::Static, ArbiterPolicy::Dynamic][policy_ix];
        let pool = Resources::new(cg, prc);
        let arbiter = partitioned(policy, pool, n);
        prop_assert_eq!(arbiter.slices().len(), n);
        prop_assert_eq!(total(arbiter.slices()), pool, "partition must cover the pool exactly");
        for &s in arbiter.slices() {
            prop_assert!(s.checked_sub(Resources::NONE).is_some());
            prop_assert!(pool.checked_sub(s).is_some(), "slice exceeds the pool");
        }
    }

    /// Under any sequence of tenant finishes (each keeping an arbitrary
    /// sub-slice pinned as failed hardware) the dynamic arbiter conserves
    /// the fabric: the partition never exceeds the pool, and the grants of
    /// still-active tenants only ever grow.
    #[test]
    fn arbiter_releases_conserve_fabric_and_grow_grants(
        cg in 0u16..24,
        prc in 0u16..8,
        n in 2usize..6,
        order_seed in 0u64..1000,
        keep_frac in 0u16..4,
    ) {
        let pool = Resources::new(cg, prc);
        let mut arbiter = partitioned(ArbiterPolicy::Dynamic, pool, n);
        let before: Vec<Resources> = arbiter.slices().to_vec();

        // A deterministic pseudo-random finish order.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = order_seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }

        let mut active: Vec<bool> = vec![true; n];
        let mut floor = before.clone();
        for &f in &order {
            active[f] = false;
            // The finished tenant pins a fraction of its grant (failed
            // slots survive the release).
            let g = arbiter.grant(f);
            let keep = Resources::new(
                g.cg() / (keep_frac + 1).max(1),
                g.prc() / (keep_frac + 1).max(1),
            );
            let demands: Vec<(usize, u64)> = (0..n).filter(|&i| active[i]).map(|i| (i, 1)).collect();
            arbiter.release(f, keep, &demands);

            prop_assert!(
                pool.checked_sub(total(arbiter.slices())).is_some(),
                "partition exceeds the pool after a release"
            );
            for i in 0..n {
                if active[i] {
                    prop_assert!(
                        arbiter.grant(i).checked_sub(floor[i]).is_some(),
                        "an active tenant's grant shrank"
                    );
                    floor[i] = arbiter.grant(i);
                }
            }
        }
    }

    /// Retiring departed tenants conserves the fabric: over any sequence of
    /// admits, parks, demand-driven releases and ladder transfers, where
    /// every departing tenant keeps an arbitrary sub-slice pinned as failed
    /// hardware and then retires, the live grants, the free store and the
    /// retired store always sum exactly to the pool, and the retired store
    /// holds exactly what the departed tenants kept.
    #[test]
    fn arbiter_retirement_conserves_the_pool(
        cg in 0u16..24,
        prc in 0u16..8,
        policy_ix in 0usize..2,
        ops in prop::collection::vec((0u8..4, 0usize..64, 0u16..8, 0u16..4), 1..60),
    ) {
        let policy = [ArbiterPolicy::Static, ArbiterPolicy::Dynamic][policy_ix];
        let pool = Resources::new(cg, prc);
        let mut arbiter = FabricArbiter::empty(policy, pool);
        let mut kept = Resources::NONE;
        for (op, pick, a, k) in ops {
            let live = arbiter.slices().len();
            match op {
                0 => {
                    let pos = arbiter.admit(Resources::new(a, a / 2));
                    prop_assert_eq!(pos, live, "a newcomer joins at the end");
                }
                1 | 2 if live > 0 => {
                    let pos = pick % live;
                    let g = arbiter.grant(pos);
                    let keep = Resources::new(g.cg() / (k + 1), g.prc() / (k + 1));
                    if op == 1 {
                        arbiter.park(pos, keep);
                    } else {
                        let demands: Vec<(usize, u64)> = (0..live)
                            .filter(|&i| i != pos)
                            .map(|i| (i, 1 + (i as u64 * u64::from(a)) % 5))
                            .collect();
                        arbiter.release(pos, keep, &demands);
                    }
                    let held = arbiter.grant(pos);
                    if op == 1 || policy == ArbiterPolicy::Dynamic {
                        prop_assert_eq!(held, keep, "only the pinned part stays");
                    }
                    arbiter.retire(pos);
                    kept += held;
                    prop_assert_eq!(arbiter.slices().len(), live - 1);
                }
                3 if live > 1 => {
                    let from = pick % live;
                    let to = (pick / live) % live;
                    arbiter.transfer(from, to, Resources::new(a, k));
                }
                _ => {}
            }
            prop_assert_eq!(arbiter.retired(), kept, "the retired store drifted");
            prop_assert_eq!(
                total(arbiter.slices()) + arbiter.free() + arbiter.retired(),
                pool,
                "live grants + free + retired must equal the pool"
            );
        }
    }

    /// The weighted-fair scheduler never starves: over a long all-runnable
    /// pick/charge loop with arbitrary positive weights, every tenant is
    /// picked — and within any `n` consecutive picks after warm-up the
    /// lightest tenant still appears (bounded virtual-time lag).
    #[test]
    fn wfq_never_starves_any_runnable_tenant(
        weights in prop::collection::vec(1u64..1000, 2..6),
        charge in 1u64..100_000,
    ) {
        let n = weights.len();
        let mut wfq = WeightedFair::new(&weights);
        let runnable = vec![true; n];
        let rounds = 200 * n;
        let mut picks = vec![0u64; n];
        let mut last_seen = vec![0usize; n];
        let mut max_gap = vec![0usize; n];
        for round in 0..rounds {
            let t = wfq.pick(&runnable, &BLIND).expect("someone is runnable");
            prop_assert!(t < n);
            picks[t] += 1;
            for i in 0..n {
                if i == t {
                    last_seen[i] = round;
                } else {
                    max_gap[i] = max_gap[i].max(round - last_seen[i]);
                }
            }
            wfq.charge(t, Cycles::new(charge));
        }
        let wsum: u64 = weights.iter().sum();
        for i in 0..n {
            prop_assert!(picks[i] > 0, "tenant {} was starved", i);
            // Virtual-time lag bound: a tenant of weight w waits at most
            // ~wsum/w picks between services (slack 2x + constant for
            // start-up transients).
            let bound = 2 * (wsum / weights[i]).max(1) as usize + n + 2;
            prop_assert!(
                max_gap[i] <= bound,
                "tenant {} waited {} picks (bound {})",
                i, max_gap[i], bound
            );
        }
    }

    /// WFQ never picks a tenant that is not runnable.
    #[test]
    fn wfq_respects_the_runnable_mask(
        weights in prop::collection::vec(1u64..100, 2..6),
        mask_bits in 0u32..64,
    ) {
        let n = weights.len();
        let runnable: Vec<bool> = (0..n).map(|i| mask_bits >> i & 1 == 1).collect();
        let mut wfq = WeightedFair::new(&weights);
        for _ in 0..50 {
            match wfq.pick(&runnable, &BLIND) {
                Some(t) => {
                    prop_assert!(runnable[t], "picked a non-runnable tenant");
                    wfq.charge(t, Cycles::new(1000));
                }
                None => prop_assert!(runnable.iter().all(|r| !r)),
            }
        }
    }

    /// Preempt/resume transparency: a tenant descheduled from time `t0`
    /// until `t0 + gap` ends up with the *same* machine and simulation
    /// state whether the idle span is applied as one `advance_to` or
    /// chopped into `k` arbitrary intermediate steps. In-flight
    /// reconfigurations stream identically either way, so the remainder
    /// of the trace must produce bit-identical statistics.
    #[test]
    fn preempt_resume_preserves_reconfiguration_state(
        rounds in 2usize..6,
        split in 1usize..4,
        gap in 1u64..2_000_000,
        k in 2usize..6,
        cg in 0u16..3,
        prc in 0u16..3,
    ) {
        let toy = mrts::ingest::model("toy").expect("builtin toy lowers");
        let catalog = toy
            .application()
            .build_catalog(ArchParams::default(), None)
            .expect("toy kernels are mappable");
        let trace = synthetic_trace(&toy, &[Pattern::Constant(800)], rounds);
        let combo = Resources::new(cg, prc);
        let split = split.min(trace.activations().len() - 1);

        let run = |steps: usize| -> (RunStats, Cycles) {
            let machine = Machine::new(ArchParams::default(), combo).expect("valid machine");
            let mut sim = Simulator::new(&catalog, machine);
            let mut policy = Mrts::new();
            let mut stats = RunStats::default();
            for a in &trace.activations()[..split] {
                sim.step_activation(a, &mut policy, &mut stats);
            }
            // The descheduled span, in `steps` arbitrary increments.
            let t0 = sim.now();
            for j in 1..=steps {
                sim.advance_to(t0 + Cycles::new(gap * j as u64 / steps as u64));
            }
            sim.advance_to(t0 + Cycles::new(gap));
            for a in &trace.activations()[split..] {
                sim.step_activation(a, &mut policy, &mut stats);
            }
            (stats, sim.now())
        };

        let (one, end_one) = run(1);
        let (many, end_many) = run(k);
        prop_assert_eq!(one, many, "stats diverge when the idle span is split");
        prop_assert_eq!(end_one, end_many);
    }

    /// Fault injection composed with deadline pressure stays
    /// degrade-don't-drop under every core scheduler: a faulty tenant that
    /// keeps getting preempted (and possibly demoted by the ladder to fund
    /// an SLO tenant) still finishes its whole trace, its faults never
    /// leak into the clean tenants' books, every ladder loan is repaid by
    /// the end of the run, and the whole thing is byte-deterministic.
    #[test]
    fn faults_under_slo_pressure_never_drop_or_deadlock(
        rounds in 2usize..5,
        execs in 50u64..400,
        rate in 0.0f64..0.9,
        fault_seed in 0u64..1000,
        sched_ix in 0usize..3,
        cg in 0u16..3,
        prc in 0u16..3,
        period_shift in 0u32..12,
    ) {
        let toy = mrts::ingest::model("toy").expect("builtin toy lowers");
        let catalog = toy
            .application()
            .build_catalog(ArchParams::default(), None)
            .expect("toy kernels are mappable");
        let trace = synthetic_trace(&toy, &[Pattern::Constant(execs)], rounds);
        let sched = [
            SchedulerKind::WeightedFair,
            SchedulerKind::EarliestDeadline,
            SchedulerKind::LeastLaxity,
        ][sched_ix];
        let cfg = MultitaskConfig {
            policy: "mrts".into(),
            arbiter: ArbiterPolicy::Dynamic,
            scheduler: sched,
            degrade: true,
            repartition_min_demand: Cycles::ZERO,
            ..MultitaskConfig::default()
        };
        // Anywhere from hopeless (period 256 cycles) to comfortable.
        let slo = Slo {
            session_deadline: None,
            block_period: Some(Cycles::new(1u64 << (8 + period_shift))),
            criticality: Criticality::Hard,
        };
        let fm = FaultModel::new(rate, fault_seed);
        let run = || {
            let specs = [
                TenantSpec::new("rt", &catalog, &trace).with_slo(slo),
                TenantSpec::new("faulty", &catalog, &trace).with_fault_model(fm.clone()),
                TenantSpec::new("clean", &catalog, &trace),
            ];
            run_multitask(ArchParams::default(), Resources::new(cg, prc), &specs, &cfg)
                .expect("the multitask run must not fail")
        };
        let a = run();
        prop_assert_eq!(&a, &run(), "equal inputs must give byte-equal stats");

        // Degrade-don't-drop: nobody loses work to faults, preemption or
        // ladder demotions.
        let expected: u64 = rounds as u64 * execs;
        for t in &a.tenants {
            prop_assert_eq!(
                t.run.total_executions(), expected,
                "tenant {} dropped executions", t.app
            );
        }
        // Faults stay inside the faulty tenant's books.
        prop_assert_eq!(a.tenants[0].run.failed_loads, 0);
        prop_assert_eq!(a.tenants[2].run.failed_loads, 0);
        // Every loan is repaid: the ladder unwinds fully by the end.
        prop_assert_eq!(a.degrade_steps(), a.promote_steps(), "unreturned ladder loans");
        // The clock is consistent: the run ends no earlier than the last
        // tenant's finish (release-path repartitions may pad the tail).
        let last = a.tenants.iter().map(|t| t.turnaround).max().unwrap();
        prop_assert!(a.makespan >= last, "makespan precedes a tenant's finish");
    }
}

/// The two-tenant fft + cipher mix (seeds 1 and 2) on 2 CG + 2 PRC under
/// the default runner config: its makespan is pinned exactly (12.192
/// Mcycles at print resolution), so a change to scheduling, arbitration
/// or per-tenant planning that moves a single cycle shows here.
#[test]
fn fft_cipher_default_config_makespan_is_pinned() {
    let apps = [
        mrts_bench::Testbed::new("fft", 1).unwrap(),
        mrts_bench::Testbed::new("cipher", 2).unwrap(),
    ];
    let specs: Vec<TenantSpec<'_>> = apps
        .iter()
        .map(|a| TenantSpec::new(a.name(), &a.catalog, &a.trace))
        .collect();
    let stats = run_multitask(
        ArchParams::default(),
        Resources::new(2, 2),
        &specs,
        &MultitaskConfig::default(),
    )
    .expect("the multitask run succeeds");
    assert_eq!(stats.makespan, Cycles::new(12_191_775));
    assert_eq!(format!("{:.3}", stats.makespan.as_mcycles()), "12.192");
}
