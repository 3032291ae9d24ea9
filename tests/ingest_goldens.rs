//! Golden equivalence for the ingestion pipeline: the checked-in
//! manifests under `manifests/` (the only definition of the builtin apps)
//! are in canonical form, and lowering them reproduces pinned digests of
//! the catalogue, the traces and the simulated statistics, plus each
//! builtin's busy-cycle fingerprint.
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
use mrts::workload::{Scene, Trace, TraceBuilder, VideoModel, WorkloadModel};

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

/// Builds `(catalogue, trace)` for a builtin through the ingestion pipeline.
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

/// 64-bit FNV-1a over a serialised artifact.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The hex FNV-1a digest of a value's serde_json rendering.
macro_rules! digest {
    ($value:expr) => {
        format!(
            "{:016x}",
            fnv1a(serde_json::to_string($value).expect("serialise").as_bytes())
        )
    };
}

#[test]
fn builtin_artifact_digests_are_pinned() {
    // Per builtin: its serde_json catalogue, its traces at seeds 1..=4, and
    // its `RunStats` under mRTS and RISC-only on 2 CG + 2 PRC (seed 1).
    // Recorded while the manifests still had hand-written Rust twins that
    // they matched byte for byte; these digests are now that witness.
    let pinned: [(&str, [&str; 7]); 4] = [
        (
            "h264",
            [
                "2d82d3a2a2ff3dc5",
                "dd7f675f332ddf51",
                "83ad9b69653079bf",
                "c04d4dcac1e04ed0",
                "c972aa88bd8ea4e3",
                "276348d7e092102a",
                "0b52b1d5921b3ca5",
            ],
        ),
        (
            "fft",
            [
                "47e5e6b19d011106",
                "4dfc42508787be2c",
                "c5367300dca3212c",
                "472ce68e721d6a8a",
                "243b24bc52be3588",
                "50abd9f6954009dc",
                "e599eb6c5f33fbe0",
            ],
        ),
        (
            "cipher",
            [
                "756d70589019aa88",
                "9671768aea216a5c",
                "29f3e51be4081599",
                "5037d9e190ed2309",
                "a92d531473747f2c",
                "eb681746ff9d4f2e",
                "c45f9661342175ab",
            ],
        ),
        (
            "toy",
            [
                "1d82f3946938d63c",
                "6f965ef1ce0dc782",
                "d738d39b96c9bcfc",
                "0e924c288c626959",
                "11d029cb1a68da9b",
                "48900c4e600b83da",
                "43926604610648d4",
            ],
        ),
    ];
    for (name, want) in pinned {
        let (catalog, trace) = ingested_artifacts(name, 1);
        let mut got = vec![digest!(&catalog)];
        got.extend((1..=4).map(|seed| digest!(&ingested_artifacts(name, seed).1)));
        got.push(digest!(&run(&catalog, &trace, &mut Mrts::new())));
        got.push(digest!(&run(&catalog, &trace, &mut RiscOnlyPolicy::new())));
        assert_eq!(
            got, want,
            "{name}: [catalogue, traces 1..=4, mRTS RunStats, RISC RunStats] digests moved"
        );
    }
}

#[test]
fn h264_frame_counts_and_gaps_are_pinned() {
    // Per-frame kernel execution counts over the paper video (seed 1) and
    // the eleven inter-execution gaps of the encoder manifest.
    let model = mrts::ingest::model("h264").expect("h264 lowers");
    let counts: Vec<Vec<u64>> = VideoModel::paper_default(1)
        .frames()
        .iter()
        .map(|f| model.kernel_executions(f))
        .collect();
    assert_eq!(
        digest!(&counts),
        "efdbaf57e11a7a2b",
        "h264 per-frame counts moved"
    );
    let gaps: Vec<u64> = (0..11u16)
        .map(|k| model.kernel_gap(mrts::ise::KernelId(k)).get())
        .collect();
    assert_eq!(
        gaps,
        [150, 300, 500, 250, 250, 200, 200, 400, 220, 600, 350]
    );
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

/// A seeded 120-frame video of four scenes on `width_mb` × `height_mb`
/// macroblocks: long enough that a changed row/column term or a changed
/// RNG draw order shows up far from the first frames.
fn long_video(width_mb: u16, height_mb: u16) -> VideoModel {
    VideoModel::builder(width_mb, height_mb)
        .scene(Scene::new(37, 0.15, 0.65))
        .scene(Scene::new(29, 0.90, 0.35))
        .scene(Scene::new(41, 0.55, 0.85))
        .scene(Scene::new(13, 0.70, 0.10))
        .seed(0x5eed_0028)
        .build()
}

#[test]
fn long_video_traces_and_frames_are_pinned() {
    // Traces of two builtins over a long CIF video with scene changes at
    // frames 0, 37, 66 and 107.
    for (name, want) in [("h264", "fc98eaa8fb9adcee"), ("cv", "0f453f5225277d58")] {
        let model = mrts::ingest::model(name).expect("builtin spec resolves");
        let trace = TraceBuilder::new(&model).video(long_video(22, 18)).build();
        assert_eq!(trace.len(), 120 * model.application().blocks().len());
        assert_eq!(digest!(&trace), want, "{name}: long-video trace moved");
    }
    // Whole frame statistics at two non-CIF sizes, one of them degenerate.
    for ((w, h), want) in [((5, 3), "1a701e87765e7fac"), ((1, 1), "d30dae532b9f170f")] {
        let frames = long_video(w, h).frames();
        let changes: Vec<u32> = frames
            .iter()
            .filter(|f| f.scene_change)
            .map(|f| f.index)
            .collect();
        assert_eq!(changes, [0, 37, 66, 107]);
        assert_eq!(digest!(&frames), want, "{w}x{h}: frame statistics moved");
    }
}
