//! Property-based tests of the ingestion pipeline over *randomly
//! generated* manifests: arbitrary kernels, op chains, rate rules and
//! block structures, plus deliberately injected dead ops.
//!
//! Two invariants must hold for anything the front-end accepts:
//!
//! 1. **Round-trip stability** — lowering, re-serializing the canonical
//!    IR and lowering again is a fixed point: the second pass produces a
//!    byte-identical manifest and catalogue. (This is what makes
//!    `mrts-cli ingest --dump` output trustworthy as a checked-in file.)
//! 2. **DCE is unobservable** — dead ops change neither the derived
//!    catalogue nor any simulated `RunStats`; removing them is pure
//!    compression of the IR.
//!
//! A third property guards the builtin manifests, the only definition of
//! the builtin apps: any mutation of one — a truncation, a flipped byte, a
//! number set to an extreme — runs through the whole pipeline to a result
//! or an [`IngestError`], never a panic.

use mrts::arch::{ArchParams, Machine, Resources};
use mrts::core::Mrts;
use mrts::ingest::{
    builtin, lower, BlockManifest, DataPathManifest, Feature, IngestError, KernelManifest,
    Manifest, ManifestModel, NodeManifest, RateExpr, RateRule, Round,
};
use mrts::ise::datapath::OpKind;
use mrts::sim::{RiscOnlyPolicy, RunStats, Simulator};
use mrts::workload::{TraceBuilder, VideoModel, WorkloadModel};
use proptest::prelude::*;

/// A random but always-valid op chain: three inputs, then ops whose
/// operands respect arity and creation order (the front-end's validation
/// rules).
fn arb_nodes() -> impl Strategy<Value = Vec<NodeManifest>> {
    prop::collection::vec(0usize..OpKind::ALL.len(), 1..8).prop_map(|indices| {
        let mut nodes = vec![
            NodeManifest::Input,
            NodeManifest::Input,
            NodeManifest::Input,
        ];
        for i in indices {
            let kind = OpKind::ALL[i];
            let last = nodes.len() - 1;
            let operands = match kind.arity() {
                1 => vec![last],
                2 => vec![last, 1],
                _ => vec![last, 1, 2],
            };
            nodes.push(NodeManifest::Op { kind, operands });
        }
        nodes
    })
}

/// A random rate rule from the grammar the builtin manifests use
/// (constants, per-frame features, sums, products, scene splits).
fn arb_rate() -> impl Strategy<Value = RateRule> {
    let feature = (0usize..5).prop_map(|i| {
        RateExpr::Feature(
            [
                Feature::MbCount,
                Feature::Motion,
                Feature::Residual,
                Feature::Texture,
                Feature::Edge,
            ][i],
        )
    });
    (feature, 1u32..40, 0u32..10, any::<bool>()).prop_map(|(f, scale, offset, nearest)| RateRule {
        round: if nearest {
            Round::NearestMin1
        } else {
            Round::Trunc
        },
        expr: RateExpr::Add(
            Box::new(RateExpr::Const(f64::from(offset))),
            Box::new(RateExpr::Mul(
                Box::new(RateExpr::Feature(Feature::MbCount)),
                Box::new(RateExpr::Mul(
                    Box::new(f),
                    Box::new(RateExpr::Const(f64::from(scale))),
                )),
            )),
        ),
    })
}

/// A random manifest: 1–3 kernels (names assigned by position), every
/// kernel reachable from the one functional block (the front-end
/// requires non-empty blocks and known kernel names).
fn arb_manifest() -> impl Strategy<Value = Manifest> {
    let kernel = (
        prop::collection::vec((arb_nodes(), 1u32..20), 1..3),
        arb_rate(),
        10u64..200,
        100u64..500,
    );
    prop::collection::vec(kernel, 1..4).prop_map(|raw| {
        let kernels: Vec<KernelManifest> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (dps, rate, overhead, gap))| KernelManifest {
                name: format!("k{i}"),
                overhead,
                gap,
                rate,
                data_paths: dps
                    .into_iter()
                    .enumerate()
                    .map(|(j, (nodes, calls))| DataPathManifest {
                        name: format!("k{i}d{j}"),
                        calls,
                        nodes,
                        outputs: None,
                    })
                    .collect(),
            })
            .collect();
        Manifest {
            name: "prop_app".to_owned(),
            blocks: vec![BlockManifest {
                name: "all".to_owned(),
                kernels: kernels.iter().map(|k| k.name.clone()).collect(),
            }],
            kernels,
        }
    })
}

/// Simulates a manifest end to end on the paper machine and video model.
fn simulate(m: &Manifest, seed: u64) -> (String, RunStats) {
    let model = ManifestModel::new(m).expect("generated manifest lowers");
    let catalog = model
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("generated kernels are mappable");
    let trace = TraceBuilder::new(&model)
        .video(VideoModel::paper_default(seed))
        .build();
    let machine = Machine::new(ArchParams::default(), Resources::new(2, 2)).expect("valid machine");
    let stats = Simulator::run(&catalog, machine, &trace, &mut Mrts::new());
    (serde_json::to_string(&catalog).expect("serializes"), stats)
}

/// The sink ops of a data path with implicit outputs (`outputs: None`):
/// ops no other op consumes. Making them explicit must not change
/// anything; appending ops *outside* the list creates genuinely dead ops.
fn sink_ops(nodes: &[NodeManifest]) -> Vec<usize> {
    let mut consumed = vec![false; nodes.len()];
    for node in nodes {
        if let NodeManifest::Op { operands, .. } = node {
            for &o in operands {
                consumed[o] = true;
            }
        }
    }
    nodes
        .iter()
        .enumerate()
        .filter(|(i, n)| matches!(n, NodeManifest::Op { .. }) && !consumed[*i])
        .map(|(i, _)| i)
        .collect()
}

/// Appends `count` dead ops (chained off the first input, feeding only
/// each other) to every data path, pinning the original sinks as the
/// explicit output set.
fn inject_dead_ops(m: &Manifest, count: usize) -> Manifest {
    let mut out = m.clone();
    for k in &mut out.kernels {
        for dp in &mut k.data_paths {
            let sinks = sink_ops(&dp.nodes);
            dp.outputs = Some(sinks);
            let mut last = 0; // the first input
            for i in 0..count {
                let kind = OpKind::ALL[i % OpKind::ALL.len()];
                let operands = match kind.arity() {
                    1 => vec![last],
                    2 => vec![last, 0],
                    _ => vec![last, 0, 0],
                };
                last = dp.nodes.len();
                dp.nodes.push(NodeManifest::Op { kind, operands });
            }
        }
    }
    out
}

/// What the mutation probe writes over a number: zero, 2³², `u64::MAX`,
/// one past it and far past it.
const EXTREMES: [&str; 5] = [
    "0",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
];

/// Mutates manifest text: `kind` 0 truncates it at byte `at`, 1 flips the
/// bits `mask` of byte `at`, 2 overwrites its `at`-th run of digits (a
/// number field, or a constant inside a rate rule) with `EXTREMES[value]`.
/// Positions wrap around the text.
fn mutate(text: &str, kind: u8, at: usize, mask: u8, value: usize) -> String {
    let bytes = text.as_bytes();
    match kind {
        0 => String::from_utf8_lossy(&bytes[..at % bytes.len()]).into_owned(),
        1 => {
            let mut flipped = bytes.to_vec();
            flipped[at % bytes.len()] ^= mask;
            String::from_utf8_lossy(&flipped).into_owned()
        }
        _ => {
            let mut numbers = Vec::new();
            let mut start = None;
            for (i, b) in bytes.iter().enumerate().chain([(bytes.len(), &b' ')]) {
                match (b.is_ascii_digit(), start) {
                    (true, None) => start = Some(i),
                    (false, Some(s)) => {
                        numbers.push((s, i));
                        start = None;
                    }
                    _ => {}
                }
            }
            let (s, e) = numbers[at % numbers.len()];
            format!("{}{}{}", &text[..s], EXTREMES[value], &text[e..])
        }
    }
}

/// Parses, lowers, derives the catalogue, builds the paper-video trace and
/// simulates it RISC-only on 2 CG + 2 PRC — stopping at the first error.
fn pipeline(text: &str) -> Result<RunStats, IngestError> {
    let manifest = Manifest::from_json(text)?;
    let catalog = lower(&manifest)?.derive_catalog(ArchParams::default(), None)?;
    let model = ManifestModel::new(&manifest)?;
    let trace = TraceBuilder::new(&model).build();
    let machine = Machine::new(ArchParams::default(), Resources::new(2, 2)).expect("valid machine");
    Ok(Simulator::run(
        &catalog,
        machine,
        &trace,
        &mut RiscOnlyPolicy::new(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round trip: lower → serialize → parse → lower is a fixed point,
    /// byte for byte.
    #[test]
    fn lower_serialize_lower_is_a_fixed_point(m in arb_manifest()) {
        let l1 = lower(&m).expect("generated manifest lowers");
        let text = l1.manifest.to_json();
        let reparsed = Manifest::from_json(&text).expect("canonical JSON parses");
        let l2 = lower(&reparsed).expect("reparsed manifest lowers");
        prop_assert_eq!(&l1.manifest, &l2.manifest, "canonical IR is not a fixed point");
        prop_assert_eq!(
            l2.manifest.to_json(), text,
            "canonical serialization is not stable"
        );
        let c1 = l1.derive_catalog(ArchParams::default(), None).expect("catalogue");
        let c2 = l2.derive_catalog(ArchParams::default(), None).expect("catalogue");
        prop_assert_eq!(
            serde_json::to_string(&c1).expect("serializes"),
            serde_json::to_string(&c2).expect("serializes"),
            "re-lowered catalogue differs"
        );
    }

    /// DCE is unobservable: injecting dead ops changes neither the
    /// catalogue nor the simulated statistics.
    #[test]
    fn dead_ops_never_change_simulated_stats(
        m in arb_manifest(),
        dead in 1usize..4,
        seed in 1u64..6,
    ) {
        let (clean_cat, clean_stats) = simulate(&m, seed);
        let injected = inject_dead_ops(&m, dead);
        let l = lower(&injected).expect("injected manifest lowers");
        prop_assert!(
            l.dce.removed_ops >= dead,
            "DCE removed {} ops, expected at least {dead}",
            l.dce.removed_ops
        );
        let (dirty_cat, dirty_stats) = simulate(&injected, seed);
        prop_assert_eq!(clean_cat, dirty_cat, "dead ops leaked into the catalogue");
        prop_assert_eq!(clean_stats, dirty_stats, "dead ops changed the simulation");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No mutation of a builtin manifest panics anywhere in the pipeline:
    /// each one simulates or stops at an `IngestError`.
    #[test]
    fn mutated_builtin_manifests_never_panic(
        app in 0usize..builtin::BUILTIN_APPS.len(),
        kind in 0u8..3,
        at in any::<usize>(),
        mask in 1u8..255,
        value in 0usize..EXTREMES.len(),
    ) {
        let name = builtin::BUILTIN_APPS[app];
        let text = builtin::load(name).expect("builtin parses").to_json();
        prop_assert!(pipeline(&text).is_ok(), "{name}: unmutated manifest fails");
        let _ = pipeline(&mutate(&text, kind, at, mask, value));
    }
}
