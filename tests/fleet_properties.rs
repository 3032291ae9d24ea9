//! Property-based tests of the fleet service layer: session conservation
//! (every arrival ends exactly one of accepted/rejected, and every
//! accepted session runs on exactly one fabric), batch equivalence (a
//! one-fabric fleet fed every session at `t = 0` reproduces the batch
//! multi-tenant runner byte-for-byte), arrival-trace replayability (the
//! Poisson generator is seed-deterministic and a run replayed from its
//! own emitted JSONL trace is byte-identical), and the shared
//! nearest-rank percentile helper against a sort-based oracle.

use mrts::arch::{ArchParams, Resources};
use mrts::fleet::{
    poisson_arrivals, records_from_jsonl, records_to_jsonl, run_fleet, AppRegistry, FleetConfig,
    Placement, PoissonConfig,
};
use mrts::multitask::{
    run_multitask, AdmissionPolicy, ArbiterPolicy, MultitaskConfig, SchedulerKind, TenantRequest,
    TenantSpec,
};
use mrts::sim::nearest_rank_percentile;
use proptest::prelude::*;

fn registry(params: &ArchParams, variants: usize, seed: u64) -> AppRegistry {
    AppRegistry::new(params, &["toy"], variants, seed, 40).expect("toy registry builds")
}

/// The default fleet (2 fabrics x 4 lanes, Poisson arrivals) on 2 000
/// `toy` sessions: the accepted count is pinned exactly, so a change to
/// admission, placement or queueing that accepts or rejects one more
/// session shows here.
#[test]
fn default_toy_fleet_accepted_count_is_pinned() {
    let params = ArchParams::default();
    let records = poisson_arrivals(&PoissonConfig {
        sessions: 2_000,
        ..PoissonConfig::default()
    });
    let out = run_fleet(
        &params,
        &registry(&params, 4, 1),
        &records,
        &FleetConfig::default(),
    )
    .expect("the fleet run succeeds");
    assert_eq!(out.stats.accepted, 674);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The shared percentile helper agrees with the obvious oracle —
    /// sort the full population (explicit zeros included) and take the
    /// nearest-rank element — for every population and quantile.
    #[test]
    fn percentile_matches_sort_based_oracle(
        nonzero in prop::collection::vec(1u64..1_000_000, 0..40),
        zeros in 0u64..40,
        q_num in 0u64..101,
    ) {
        let got = nearest_rank_percentile(&nonzero, zeros, q_num, 100);
        let mut all: Vec<u64> = nonzero.clone();
        all.extend(std::iter::repeat_n(0, zeros as usize));
        all.sort_unstable();
        let expected = if all.is_empty() {
            0
        } else {
            // Nearest-rank: the ceil(q·n/100)-th smallest, 1-based; the
            // 0th percentile reads the minimum.
            let rank = (q_num * all.len() as u64).div_ceil(100).max(1) as usize;
            all[rank - 1]
        };
        prop_assert_eq!(got, expected);
    }

    /// Conservation of sessions: whatever the placement policy, shard
    /// shape and load, every submitted session is either accepted or
    /// rejected (never both, never lost), every accepted session sits on
    /// exactly one fabric, and per-fabric completion counts sum to the
    /// acceptance count.
    #[test]
    fn placement_conserves_sessions(
        sessions in 1usize..40,
        mean_gap in 1u64..200_000,
        seed in 0u64..1000,
        fabrics in 1usize..4,
        ways in 1usize..4,
        queue_cap in 0usize..4,
        placement_ix in 0usize..3,
        arbiter_ix in 0usize..2,
        admission_ix in 0usize..3,
    ) {
        let params = ArchParams::default();
        let registry = registry(&params, 3, seed ^ 0xf1ee7);
        let mut records = poisson_arrivals(&PoissonConfig {
            seed,
            sessions,
            mean_gap,
            mix: vec![
                TenantRequest { app: "toy".into(), weight: 2, slo: None },
                TenantRequest {
                    app: "toy".into(),
                    weight: 1,
                    slo: Some("soft:400000".parse().unwrap()),
                },
                TenantRequest {
                    app: "toy".into(),
                    weight: 1,
                    slo: Some("hard:0:90000000".parse().unwrap()),
                },
            ],
            variants: 3,
        });
        // Shove a few arrivals to t=0 to stress the all-at-once path.
        for r in records.iter_mut().take(3) {
            r.at = 0;
        }
        let cfg = FleetConfig {
            multitask: MultitaskConfig {
                admission: [AdmissionPolicy::Off, AdmissionPolicy::Reject, AdmissionPolicy::Queue][admission_ix],
                arbiter: [ArbiterPolicy::Static, ArbiterPolicy::Dynamic][arbiter_ix],
                repartition_min_demand: mrts::arch::Cycles::new(50_000),
                ..MultitaskConfig::default()
            },
            fabrics,
            ways,
            queue_cap,
            placement: [Placement::RoundRobin, Placement::LeastLoaded, Placement::CriticalityAware][placement_ix],
            ..FleetConfig::default()
        };
        let out = run_fleet(&params, &registry, &records, &cfg).expect("fleet run succeeds");
        prop_assert_eq!(out.stats.offered as usize, sessions);
        prop_assert_eq!(out.stats.accepted + out.stats.rejected, sessions as u64);
        prop_assert_eq!(out.stats.sessions.len(), sessions);
        let mut per_fabric = vec![0u64; fabrics];
        for s in &out.stats.sessions {
            match s.fabric {
                Some(f) => {
                    prop_assert!(!s.rejected, "a rejected session sits on a fabric");
                    prop_assert!(f < fabrics);
                    per_fabric[f] += 1;
                    prop_assert!(s.admitted_at >= s.submitted);
                    prop_assert!(s.departed_at >= s.admitted_at);
                }
                None => prop_assert!(s.rejected, "a lost session: neither ran nor rejected"),
            }
        }
        for (f, fb) in out.stats.fabrics.iter().enumerate() {
            prop_assert_eq!(fb.sessions, per_fabric[f], "fabric {} session count drifted", f);
        }
        prop_assert_eq!(per_fabric.iter().sum::<u64>(), out.stats.accepted);
        // Shard tenant lists carry exactly the accepted sessions.
        let shard_tenants: usize = out.shards.iter().map(|s| s.tenants.len()).sum();
        prop_assert_eq!(shard_tenants as u64, out.stats.accepted);
    }

    /// Batch equivalence: one fabric, every session submitted at `t = 0`,
    /// enough lanes for everyone, admission off — the incremental
    /// admit/step/finish service loop must reproduce [`run_multitask`]'s
    /// statistics byte-for-byte (same admission order, same even split,
    /// same scheduler state), for every core scheduler and for both the
    /// dynamic and the static arbiter. The fleet's sessions share one
    /// selection memo per app and the batch runner's tenants plan without
    /// one, so this also holds the memo to fresh selection end to end.
    #[test]
    fn single_fabric_t0_fleet_matches_batch_runner(
        n in 1usize..5,
        weights in prop::collection::vec(1u64..8, 5),
        variants in 1u64..4,
        seed in 0u64..500,
        sched_ix in 0usize..3,
        static_arbiter in any::<bool>(),
        cg in 2u16..10,
        prc in 2u16..6,
    ) {
        let params = ArchParams::default();
        let registry = registry(&params, 4, seed);
        let scheduler = [
            SchedulerKind::WeightedFair,
            SchedulerKind::EarliestDeadline,
            SchedulerKind::LeastLaxity,
        ][sched_ix];
        let arbiter = if static_arbiter {
            ArbiterPolicy::Static
        } else {
            ArbiterPolicy::Dynamic
        };
        let budget = Resources::new(cg, prc);
        let mtcfg = MultitaskConfig {
            scheduler,
            arbiter,
            admission: AdmissionPolicy::Off,
            repartition_min_demand: mrts::arch::Cycles::new(50_000),
            ..MultitaskConfig::default()
        };

        // The fleet side: n sessions, all at t=0, on one n-way fabric.
        let records: Vec<mrts::fleet::SessionRecord> = (0..n)
            .map(|i| mrts::fleet::SessionRecord {
                at: 0,
                app: "toy".into(),
                weight: weights[i],
                slo: "-".into(),
                variant: (seed + i as u64) % variants,
            })
            .collect();
        let fcfg = FleetConfig {
            multitask: mtcfg.clone(),
            fabrics: 1,
            ways: n,
            queue_cap: 0,
            budget,
            ..FleetConfig::default()
        };
        let fleet = run_fleet(&params, &registry, &records, &fcfg).expect("fleet run succeeds");
        prop_assert_eq!(fleet.stats.accepted as usize, n);

        // The batch side: the same sessions as one up-front tenant list.
        let specs: Vec<TenantSpec<'_>> = records
            .iter()
            .map(|r| {
                let v = usize::try_from(r.variant).unwrap();
                TenantSpec::new("toy", registry.catalog(0), registry.trace(0, v))
                    .with_weight(r.weight)
            })
            .collect();
        let batch = run_multitask(params.clone(), budget, &specs, &mtcfg)
            .expect("batch run succeeds");

        let fleet_json = serde_json::to_string(&fleet.shards[0]).unwrap();
        let batch_json = serde_json::to_string(&batch).unwrap();
        prop_assert_eq!(fleet_json, batch_json, "fleet shard stats diverge from the batch runner");
    }

    /// Replayability: the Poisson generator is a pure function of its
    /// config, and a fleet run driven by the JSONL round-trip of its own
    /// arrival trace is byte-identical to the original run.
    #[test]
    fn fleet_replays_own_arrival_trace_byte_identically(
        sessions in 1usize..30,
        mean_gap in 1_000u64..300_000,
        seed in 0u64..1000,
        fabrics in 1usize..3,
    ) {
        let params = ArchParams::default();
        let registry = registry(&params, 2, seed ^ 0xab);
        let pcfg = PoissonConfig {
            seed,
            sessions,
            mean_gap,
            variants: 2,
            ..PoissonConfig::default()
        };
        let records = poisson_arrivals(&pcfg);
        prop_assert_eq!(&records, &poisson_arrivals(&pcfg), "generator must be seed-deterministic");
        let replayed = records_from_jsonl(&records_to_jsonl(&records).unwrap()).unwrap();
        prop_assert_eq!(&records, &replayed, "JSONL round-trip must be lossless");

        let cfg = FleetConfig {
            fabrics,
            record_events: true,
            ..FleetConfig::default()
        };
        let a = run_fleet(&params, &registry, &records, &cfg).expect("original run succeeds");
        let b = run_fleet(&params, &registry, &replayed, &cfg).expect("replayed run succeeds");
        prop_assert_eq!(
            serde_json::to_string(&a.stats).unwrap(),
            serde_json::to_string(&b.stats).unwrap(),
            "replayed stats diverge"
        );
        prop_assert_eq!(a.events.len(), b.events.len());
        prop_assert_eq!(&a.events, &b.events, "replayed event spine diverges");
    }
}
