//! Input generation: everything a workload feeds the program is drawn
//! from the workload seed here, so the same seed gives the same inputs.

use std::time::Instant;

use mrts_arch::ArchParams;
use mrts_ise::IseCatalog;
use mrts_workload::{Scene, Trace, TraceBuilder, VideoModel, WorkloadModel};

use crate::util::{ns_since, SplitMix};

/// `n` values in `[lo, hi)`, one from each of `n` equal strata, in seeded
/// order.
fn stratified(rng: &mut SplitMix, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range(0, i as u64) as usize);
    }
    let width = (hi - lo) / n as f64;
    order
        .into_iter()
        .map(|s| lo + width * (s as f64 + rng.uniform(0.0, 1.0)))
        .collect()
}

/// A CIF video of exactly `frames` frames, cut into a seeded number of
/// scenes (`scenes.0..=scenes.1`) of seeded lengths, each with a seeded
/// motion and texture level. The total length is fixed and the levels are
/// stratified over their ranges, so seeds reorder, re-pair and re-cut the
/// content rather than change the amount of work.
pub fn seeded_video(seed: u64, frames: u32, scenes: (u64, u64)) -> VideoModel {
    let mut rng = SplitMix::new(seed);
    let count = rng.range(scenes.0, scenes.1) as u32;
    let motion = stratified(&mut rng, count as usize, 0.10, 0.90);
    let texture = stratified(&mut rng, count as usize, 0.20, 0.80);
    let weights: Vec<f64> = (0..count).map(|_| rng.uniform(1.0, 3.0)).collect();
    let total_w: f64 = weights.iter().sum();
    let spare = frames.saturating_sub(2 * count);
    let mut lens: Vec<u32> = weights
        .iter()
        .map(|w| 2 + (f64::from(spare) * w / total_w).floor() as u32)
        .collect();
    let rest = frames.saturating_sub(lens.iter().sum());
    let n = lens.len();
    for i in 0..rest as usize {
        lens[i % n] += 1;
    }
    let mut builder = VideoModel::builder(22, 18);
    for ((len, m), t) in lens.into_iter().zip(motion).zip(texture) {
        builder = builder.scene(Scene::new(len, m, t));
    }
    builder.seed(rng.next_u64()).build()
}

/// One application's lowered model, catalogue and trace, with the host
/// time of each step.
pub struct AppInputs {
    pub name: String,
    pub catalog: IseCatalog,
    pub trace: Trace,
    pub lower_ns: u64,
    pub catalog_ns: u64,
    pub trace_ns: u64,
}

/// Lowers the builtin manifest `app`, builds its catalogue and runs it
/// over `video`.
pub fn build_app(app: &str, video: VideoModel) -> AppInputs {
    let t = Instant::now();
    let model = mrts_ingest::model(app).unwrap_or_else(|e| panic!("lowering {app}: {e}"));
    let lower_ns = ns_since(t);
    let t = Instant::now();
    let catalog = model
        .application()
        .build_catalog(ArchParams::default(), None)
        .unwrap_or_else(|e| panic!("catalogue of {app}: {e}"));
    let catalog_ns = ns_since(t);
    let t = Instant::now();
    let trace = TraceBuilder::new(&model).video(video).build();
    let trace_ns = ns_since(t);
    AppInputs {
        name: model.application().name().to_owned(),
        catalog,
        trace,
        lower_ns,
        catalog_ns,
        trace_ns,
    }
}
