//! Synthetic video model.
//!
//! The paper's evaluation runs an H.264 encoder over real video whose
//! *"changing workload characteristics"* make the per-frame kernel
//! execution counts fluctuate (Fig. 2). We do not have the original
//! sequences, so this module synthesizes an equivalent stimulus: a video is
//! a sequence of *scenes*, each with its own motion/texture/noise levels;
//! per-macroblock features are produced by a cheap procedural texture
//! function, and per-frame aggregates are derived from them by actual
//! (light-weight) computations — so counts are input-*data*-dependent, not
//! hand-scripted.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One scene of the synthetic video.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scene {
    /// Number of frames in the scene.
    pub frames: u32,
    /// Motion intensity in `0.0..=1.0` (drives motion-estimation work and
    /// residual energy).
    pub motion: f64,
    /// Texture/detail level in `0.0..=1.0` (drives intra-prediction and
    /// coded-coefficient density).
    pub texture: f64,
}

impl Scene {
    /// Creates a scene, clamping the levels into `0.0..=1.0`.
    #[must_use]
    pub fn new(frames: u32, motion: f64, texture: f64) -> Self {
        Scene {
            frames,
            motion: motion.clamp(0.0, 1.0),
            texture: texture.clamp(0.0, 1.0),
        }
    }
}

/// Per-macroblock features of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MacroblockFeatures {
    /// Residual energy after motion compensation (arbitrary units,
    /// `0.0..=1.0`).
    pub residual: f64,
    /// Local gradient/edge strength (`0.0..=1.0`).
    pub edge_strength: f64,
    /// Motion-vector magnitude in quarter-pels (`0.0..=16.0`).
    pub mv_magnitude: f64,
}

/// Per-frame aggregate statistics the workload model consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameStats {
    /// Frame index within the video.
    pub index: u32,
    /// Whether this frame starts a new scene (forces intra coding).
    pub scene_change: bool,
    /// The scene's nominal motion level.
    pub motion: f64,
    /// The scene's nominal texture level.
    pub texture: f64,
    /// Per-macroblock features, row-major.
    pub macroblocks: Vec<MacroblockFeatures>,
}

impl FrameStats {
    /// Number of macroblocks.
    #[must_use]
    pub fn mb_count(&self) -> usize {
        self.macroblocks.len()
    }

    /// Mean residual energy across macroblocks.
    #[must_use]
    pub fn mean_residual(&self) -> f64 {
        mean(self.macroblocks.iter().map(|m| m.residual))
    }

    /// Mean edge strength across macroblocks.
    #[must_use]
    pub fn mean_edge_strength(&self) -> f64 {
        mean(self.macroblocks.iter().map(|m| m.edge_strength))
    }

    /// Mean motion-vector magnitude.
    #[must_use]
    pub fn mean_mv(&self) -> f64 {
        mean(self.macroblocks.iter().map(|m| m.mv_magnitude))
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let mut n = 0usize;
    let mut s = 0.0;
    for v in iter {
        n += 1;
        s += v;
    }
    if n == 0 {
        0.0
    } else {
        s / n as f64
    }
}

/// The synthetic video generator.
///
/// # Example
///
/// ```
/// use mrts_workload::video::{Scene, VideoModel};
///
/// let video = VideoModel::builder(22, 18) // CIF: 22x18 macroblocks
///     .scene(Scene::new(8, 0.2, 0.5))
///     .scene(Scene::new(8, 0.9, 0.8))
///     .seed(7)
///     .build();
/// let frames = video.frames();
/// assert_eq!(frames.len(), 16);
/// assert!(frames[8].scene_change);
/// // The high-motion scene produces more residual energy.
/// assert!(frames[12].mean_residual() > frames[4].mean_residual());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoModel {
    width_mb: u16,
    height_mb: u16,
    scenes: Vec<Scene>,
    seed: u64,
}

impl VideoModel {
    /// Starts a builder for a `width_mb` × `height_mb` macroblock frame.
    #[must_use]
    pub fn builder(width_mb: u16, height_mb: u16) -> VideoModelBuilder {
        VideoModelBuilder {
            width_mb: width_mb.max(1),
            height_mb: height_mb.max(1),
            scenes: Vec::new(),
            seed: 0x6d52_5453, // "mRTS"
        }
    }

    /// A ready-made 16-frame CIF sequence with four contrasting scenes —
    /// the default stimulus for the paper's figures.
    #[must_use]
    pub fn paper_default(seed: u64) -> Self {
        VideoModel::builder(22, 18)
            .scene(Scene::new(4, 0.10, 0.30)) // static head-and-shoulders
            .scene(Scene::new(4, 0.85, 0.75)) // fast pan, rich texture
            .scene(Scene::new(4, 0.45, 0.55)) // moderate motion
            .scene(Scene::new(4, 0.95, 0.30)) // fast, flat content
            .seed(seed)
            .build()
    }

    /// Macroblocks per frame.
    fn mb_per_frame(&self) -> u32 {
        u32::from(self.width_mb) * u32::from(self.height_mb)
    }

    /// Total frame count.
    fn frame_count(&self) -> u32 {
        self.scenes.iter().map(|s| s.frames).sum()
    }

    /// Generates the per-frame statistics of the whole video
    /// (deterministic for a given seed).
    ///
    /// These are the frames [`TraceBuilder::build`] generates, collected:
    /// the builder streams them one at a time from the same generator and
    /// never holds them all.
    ///
    /// [`TraceBuilder::build`]: crate::TraceBuilder::build
    #[must_use]
    pub fn frames(&self) -> Vec<FrameStats> {
        let mut out = Vec::with_capacity(self.frame_count() as usize);
        self.for_each_frame(|frame| out.push(frame.clone()));
        out
    }

    /// Generates the frames in order into one reused [`FrameStats`],
    /// handing each to `visit` before the next overwrites it.
    pub(crate) fn for_each_frame(&self, mut visit: impl FnMut(&FrameStats)) {
        let mut gen = FrameGen::new(self);
        let mut frame = FrameStats {
            index: 0,
            scene_change: false,
            motion: 0.0,
            texture: 0.0,
            macroblocks: Vec::with_capacity(self.mb_per_frame() as usize),
        };
        let mut index = 0u32;
        for scene in &self.scenes {
            for f in 0..scene.frames {
                gen.fill(&mut frame, index, scene, f == 0);
                visit(&frame);
                index += 1;
            }
        }
    }
}

/// The per-frame generator state: the video's RNG and the spatial terms
/// of the texture field.
///
/// The field's smooth part is `sin(x·6.3 + i·0.37) · cos(y·4.7 − i·0.21)`
/// for column position `x`, row position `y` and frame `i`: its sine
/// depends only on the column and its cosine only on the row, so each
/// frame takes one sine per column and one cosine per row instead of two
/// trig calls per macroblock. Every value is computed from the same
/// operands in the same order as per macroblock, so frames are unchanged
/// bit for bit.
struct FrameGen {
    rng: StdRng,
    width_mb: u16,
    height_mb: u16,
    col_sin: Vec<f64>,
    row_cos: Vec<f64>,
}

impl FrameGen {
    fn new(video: &VideoModel) -> Self {
        FrameGen {
            rng: StdRng::seed_from_u64(video.seed),
            width_mb: video.width_mb,
            height_mb: video.height_mb,
            col_sin: Vec::with_capacity(usize::from(video.width_mb)),
            row_cos: Vec::with_capacity(usize::from(video.height_mb)),
        }
    }

    /// Overwrites `frame` with frame `index` of `scene`, drawing one RNG
    /// value per macroblock in row-major order.
    fn fill(&mut self, frame: &mut FrameStats, index: u32, scene: &Scene, scene_change: bool) {
        let i = f64::from(index);
        let (w, h) = (f64::from(self.width_mb), f64::from(self.height_mb));
        self.col_sin.clear();
        self.col_sin
            .extend((0..self.width_mb).map(|c| (f64::from(c) / w * 6.3 + i * 0.37).sin()));
        self.row_cos.clear();
        self.row_cos
            .extend((0..self.height_mb).map(|r| (f64::from(r) / h * 4.7 - i * 0.21).cos()));
        // Slow within-scene drift so consecutive frames differ (Fig. 2's
        // frame-to-frame wiggle), plus per-MB procedural detail.
        let drift = 0.12 * (i * 0.9).sin();
        frame.index = index;
        frame.scene_change = scene_change;
        frame.motion = scene.motion;
        frame.texture = scene.texture;
        frame.macroblocks.clear();
        for &row in &self.row_cos {
            for &col in &self.col_sin {
                // Procedural texture field: smooth spatial variation + noise.
                let field = 0.5 + 0.3 * (col * row) + self.rng.gen_range(-0.15..0.15);
                let local_texture = (scene.texture * field * 1.6).clamp(0.0, 1.0);
                let local_motion = ((scene.motion + drift) * (0.6 + 0.8 * field)).clamp(0.0, 1.0);
                let residual = if scene_change {
                    // Intra frames: residual reflects texture, not motion.
                    (0.4 + 0.6 * local_texture).clamp(0.0, 1.0)
                } else {
                    (0.15 + 0.85 * local_motion * (0.5 + 0.5 * local_texture)).clamp(0.0, 1.0)
                };
                let edge_strength = (0.25 * local_texture + 0.75 * residual).clamp(0.0, 1.0);
                frame.macroblocks.push(MacroblockFeatures {
                    residual,
                    edge_strength,
                    mv_magnitude: 16.0 * local_motion,
                });
            }
        }
    }
}

/// Builder for [`VideoModel`].
#[derive(Debug, Clone)]
pub struct VideoModelBuilder {
    width_mb: u16,
    height_mb: u16,
    scenes: Vec<Scene>,
    seed: u64,
}

impl VideoModelBuilder {
    /// Appends a scene.
    #[must_use]
    pub fn scene(mut self, scene: Scene) -> Self {
        self.scenes.push(scene);
        self
    }

    /// Sets the RNG seed (the default is fixed, so every run is
    /// reproducible).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finalizes the model. A video without scenes gets one default scene
    /// of 16 moderate frames.
    #[must_use]
    pub fn build(mut self) -> VideoModel {
        if self.scenes.is_empty() {
            self.scenes.push(Scene::new(16, 0.5, 0.5));
        }
        VideoModel {
            width_mb: self.width_mb,
            height_mb: self.height_mb,
            scenes: self.scenes,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = VideoModel::paper_default(3).frames();
        let b = VideoModel::paper_default(3).frames();
        assert_eq!(a, b);
        let c = VideoModel::paper_default(4).frames();
        assert_ne!(a, c);
    }

    #[test]
    fn frame_count_and_scene_changes() {
        let v = VideoModel::paper_default(1);
        assert_eq!(v.frame_count(), 16);
        let frames = v.frames();
        assert_eq!(frames.len(), 16);
        let changes: Vec<u32> = frames
            .iter()
            .filter(|f| f.scene_change)
            .map(|f| f.index)
            .collect();
        assert_eq!(changes, vec![0, 4, 8, 12]);
        assert_eq!(frames[0].mb_count(), 22 * 18);
    }

    #[test]
    fn motion_drives_residual() {
        let frames = VideoModel::paper_default(1).frames();
        // Scene 2 (frames 4..8, motion 0.85) vs scene 1 (frames 0..4,
        // motion 0.15): compare non-intra frames.
        assert!(frames[6].mean_residual() > frames[2].mean_residual());
        assert!(frames[6].mean_mv() > frames[2].mean_mv());
    }

    #[test]
    fn features_stay_in_range() {
        for f in VideoModel::paper_default(9).frames() {
            for mb in &f.macroblocks {
                assert!((0.0..=1.0).contains(&mb.residual));
                assert!((0.0..=1.0).contains(&mb.edge_strength));
                assert!((0.0..=16.0).contains(&mb.mv_magnitude));
            }
        }
    }

    #[test]
    fn scene_levels_clamped() {
        let s = Scene::new(3, 7.0, -2.0);
        assert_eq!(s.motion, 1.0);
        assert_eq!(s.texture, 0.0);
    }

    #[test]
    fn empty_builder_gets_default_scene() {
        let v = VideoModel::builder(4, 4).build();
        assert_eq!(v.frame_count(), 16);
    }
}
