//! Golden equivalence for the ingestion pipeline: the checked-in
//! manifests under `manifests/` (the only definition of the builtin apps)
//! are in canonical form, and lowering them reproduces the hand-built
//! constructors byte for byte — same catalogue, same trace, same simulated
//! statistics — and each builtin's pinned busy-cycle fingerprint.
//!
//! `mrts-cli`, the fleet registry and the bench harness all resolve apps
//! through `mrts-ingest`, so any drift in a manifest or the pipeline
//! would silently change every figure. Byte-level
//! comparison (via `serde_json`) is deliberate — `PartialEq` would
//! tolerate a re-ordered catalogue, the paper's numbers would not.

use mrts::arch::{ArchParams, Cycles, Machine, Resources};
use mrts::core::Mrts;
use mrts::ingest::{builtin, Manifest};
use mrts::sim::{RiscOnlyPolicy, RunStats, RuntimePolicy, Simulator};
use mrts::workload::apps::{CipherApp, FftApp};
use mrts::workload::h264::H264Encoder;
use mrts::workload::synthetic::ToyApp;
use mrts::workload::{Trace, TraceBuilder, VideoModel, WorkloadModel};

/// The checked-in manifest file for `name` (tests run from the workspace
/// root, so the path is relative to `CARGO_MANIFEST_DIR`).
fn manifest_bytes(name: &str) -> String {
    let path = format!("{}/manifests/{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn checked_in_manifests_are_the_canonical_builtin_serialization() {
    // Every checked-in manifest is in canonical form: parsing and
    // re-serializing it reproduces its bytes exactly (so `--dump` output is
    // stable and diffs are meaningful).
    for name in builtin::BUILTIN_APPS {
        let text = manifest_bytes(name);
        let parsed = Manifest::from_json(&text)
            .unwrap_or_else(|e| panic!("manifests/{name}.json does not parse: {e}"));
        assert_eq!(
            parsed.to_json(),
            text,
            "manifests/{name}.json is not in canonical serialization — \
             rewrite it with `mrts-cli ingest --dump manifests/{name}.json --out manifests/{name}.json`"
        );
    }
}

/// Builds `(catalogue, trace)` from a hand-built constructor model.
fn constructor_artifacts(model: &dyn WorkloadModel, seed: u64) -> (mrts::ise::IseCatalog, Trace) {
    let catalog = model
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("kernels are mappable");
    let trace = TraceBuilder::new(model)
        .video(VideoModel::paper_default(seed))
        .build();
    (catalog, trace)
}

/// Builds the same artifacts through the ingestion pipeline.
fn ingested_artifacts(spec: &str, seed: u64) -> (mrts::ise::IseCatalog, Trace) {
    let model = mrts::ingest::model(spec).expect("builtin spec resolves");
    let catalog = model
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("ingested kernels are mappable");
    let trace = TraceBuilder::new(&model)
        .video(VideoModel::paper_default(seed))
        .build();
    (catalog, trace)
}

fn run(catalog: &mrts::ise::IseCatalog, trace: &Trace, policy: &mut dyn RuntimePolicy) -> RunStats {
    let machine = Machine::new(ArchParams::default(), Resources::new(2, 2)).expect("valid machine");
    Simulator::run(catalog, machine, trace, policy)
}

#[test]
fn ingested_apps_reproduce_the_constructors_byte_for_byte() {
    let constructors: [(&str, Box<dyn WorkloadModel>); 4] = [
        ("h264", Box::new(H264Encoder::new())),
        ("fft", Box::new(FftApp::new())),
        ("cipher", Box::new(CipherApp::new())),
        ("toy", Box::new(ToyApp::new())),
    ];
    for (name, model) in constructors {
        let (c_cat, c_trace) = constructor_artifacts(model.as_ref(), 1);
        let (i_cat, i_trace) = ingested_artifacts(name, 1);
        // serde_json rendering pins order and representation, not just
        // logical equality.
        assert_eq!(
            serde_json::to_string(&c_cat).unwrap(),
            serde_json::to_string(&i_cat).unwrap(),
            "{name}: ingested catalogue differs from the constructor's"
        );
        assert_eq!(
            serde_json::to_string(&c_trace).unwrap(),
            serde_json::to_string(&i_trace).unwrap(),
            "{name}: ingested trace differs from the constructor's"
        );
        // And the simulation built on top is identical too, for both a
        // trivial and the full policy.
        let c_stats = run(&c_cat, &c_trace, &mut Mrts::new());
        let i_stats = run(&i_cat, &i_trace, &mut Mrts::new());
        assert_eq!(
            serde_json::to_string(&c_stats).unwrap(),
            serde_json::to_string(&i_stats).unwrap(),
            "{name}: ingested RunStats differ from the constructor's"
        );
        let c_risc = run(&c_cat, &c_trace, &mut RiscOnlyPolicy::new());
        let i_risc = run(&i_cat, &i_trace, &mut RiscOnlyPolicy::new());
        assert_eq!(c_risc, i_risc, "{name}: RISC-mode runs differ");
    }
}

#[test]
fn every_builtin_busy_fingerprint_is_pinned() {
    // The whole-pipeline fingerprints: each ingested builtin, the paper
    // video model (seed 1), a 2 CG + 2 PRC machine and the full mRTS
    // policy. Any change to a manifest, the lowering passes, the catalogue
    // derivation or the trace builder moves one of these numbers.
    let pinned: [(&str, usize, u64); 6] = [
        ("h264", 48, 126_893_426),
        ("fft", 16, 2_826_588),
        ("cipher", 16, 2_583_688),
        ("toy", 16, 3_778_260),
        ("cv", 48, 70_352_748),
        ("cryptomix", 32, 54_771_836),
    ];
    for (name, blocks, busy) in pinned {
        let (catalog, trace) = ingested_artifacts(name, 1);
        assert_eq!(trace.len(), blocks, "{name}: block activations");
        let stats = run(&catalog, &trace, &mut Mrts::new());
        assert_eq!(
            stats.total_busy(),
            Cycles::new(busy),
            "{name}: busy-cycle fingerprint moved — the ingestion pipeline \
             no longer reproduces the reference run"
        );
    }
}
