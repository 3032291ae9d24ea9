//! Execution traces: the dynamic stimulus the simulator replays.
//!
//! A [`Trace`] is the sequence of functional-block activations of one
//! application run. Each activation carries
//!
//! * the **forecast** — the compile-time [`TriggerBlock`] whose numbers come
//!   from offline profiling (whole-run averages; the paper: *"They are
//!   initially obtained from an offline profiling"*), identical for every
//!   activation of the same block, and
//! * the **actual** per-kernel behaviour of this activation — which differs
//!   from the forecast because of input-data variation, the very effect
//!   mRTS's Monitoring & Prediction Unit exists to track.

use crate::app::WorkloadModel;
use crate::video::VideoModel;
use mrts_arch::Cycles;
use mrts_ise::{BlockId, KernelId, TriggerBlock, TriggerInstruction};
use serde::{Deserialize, Serialize};

/// Actual dynamic behaviour of one kernel within one block activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelActivity {
    /// The kernel.
    pub kernel: KernelId,
    /// Actual number of executions in this activation.
    pub executions: u64,
    /// Actual delay from the trigger instruction to the first execution.
    pub first_delay: Cycles,
    /// Actual average gap between consecutive executions.
    pub gap: Cycles,
}

/// One activation of a functional block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockActivation {
    /// Which block.
    pub block: BlockId,
    /// The input frame (or iteration) index that produced this activation.
    pub frame: u32,
    /// The compile-time forecast announced by the trigger instructions.
    pub forecast: TriggerBlock,
    /// The actual per-kernel behaviour.
    pub actual: Vec<KernelActivity>,
}

impl BlockActivation {
    /// The actual activity of a given kernel, if it runs in this block.
    #[must_use]
    pub fn activity_of(&self, kernel: KernelId) -> Option<&KernelActivity> {
        self.actual.iter().find(|a| a.kernel == kernel)
    }
}

/// A full application run: block activations in execution order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    name: String,
    activations: Vec<BlockActivation>,
}

impl Trace {
    /// Creates a trace from pre-built activations.
    #[must_use]
    pub fn new(name: impl Into<String>, activations: Vec<BlockActivation>) -> Self {
        Trace {
            name: name.into(),
            activations,
        }
    }

    /// The trace's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The activations in execution order.
    #[must_use]
    pub fn activations(&self) -> &[BlockActivation] {
        &self.activations
    }

    /// Number of activations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.activations.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.activations.is_empty()
    }

    /// Total actual executions of one kernel across the whole trace.
    #[must_use]
    pub fn total_executions(&self, kernel: KernelId) -> u64 {
        self.activations
            .iter()
            .flat_map(|a| a.activity_of(kernel))
            .map(|a| a.executions)
            .sum()
    }

    /// Mean actual executions of one kernel per activation in which it
    /// appears (0 if it never runs).
    #[must_use]
    pub fn mean_executions(&self, kernel: KernelId) -> f64 {
        let (sum, n) = self
            .activations
            .iter()
            .flat_map(|a| a.activity_of(kernel))
            .fold((0u64, 0u64), |(s, n), a| (s + a.executions, n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
}

/// Builds a [`Trace`] by running a [`WorkloadModel`] over a synthetic video.
///
/// # Example
///
/// A one-kernel model whose executions follow each frame's residual
/// energy:
///
/// ```
/// use mrts_ise::datapath::{DataPathGraph, OpKind};
/// use mrts_ise::{BlockId, KernelId, KernelSpec};
/// use mrts_workload::video::FrameStats;
/// use mrts_workload::{Application, FunctionalBlock, TraceBuilder, VideoModel, WorkloadModel};
///
/// struct Filter(Application);
///
/// impl WorkloadModel for Filter {
///     fn application(&self) -> &Application {
///         &self.0
///     }
///     fn kernel_executions(&self, frame: &FrameStats) -> Vec<u64> {
///         vec![(100.0 + 900.0 * frame.mean_residual()) as u64]
///     }
/// }
///
/// let mut g = DataPathGraph::builder("abs");
/// let x = g.input();
/// let _ = g.op(OpKind::Abs, &[x]);
/// let kernel = KernelSpec::new("filter").data_path(g.finish().expect("valid"), 4);
/// let block = FunctionalBlock {
///     id: BlockId(0),
///     name: "main".into(),
///     kernels: vec![KernelId(0)],
/// };
/// let model = Filter(Application::new("filter", vec![kernel], vec![block]));
/// let trace = TraceBuilder::new(&model)
///     .video(VideoModel::paper_default(1))
///     .build();
/// // 16 frames x 1 functional block.
/// assert_eq!(trace.len(), 16);
/// ```
#[derive(Debug)]
pub struct TraceBuilder<'m, M: WorkloadModel + ?Sized> {
    model: &'m M,
    video: VideoModel,
}

impl<'m, M: WorkloadModel + ?Sized> TraceBuilder<'m, M> {
    /// Starts a builder over the given workload model with the paper's
    /// default video.
    #[must_use]
    pub fn new(model: &'m M) -> Self {
        TraceBuilder {
            model,
            video: VideoModel::paper_default(1),
        }
    }

    /// Replaces the input video.
    #[must_use]
    pub fn video(mut self, video: VideoModel) -> Self {
        self.video = video;
        self
    }

    /// Generates the trace: per frame, every functional block is activated
    /// in application order; forecasts are the whole-video profiling means.
    ///
    /// One streaming pass generates the frames and evaluates each frame's
    /// kernel executions once; the builder keeps only every frame's index
    /// and counts, never the frames themselves. The profiling means and
    /// the activations are both derived from those counts.
    #[must_use]
    pub fn build(self) -> Trace {
        let app = self.model.application();
        // Offline profiling: whole-run sums of executions per kernel,
        // taken as the frames stream past.
        let mut sums = vec![0u64; app.kernel_count()];
        let mut counts: Vec<(u32, Vec<u64>)> = Vec::new();
        self.video.for_each_frame(|frame| {
            let frame_counts = self.model.kernel_executions(frame);
            for (k, e) in frame_counts.iter().enumerate() {
                sums[k] += e;
            }
            counts.push((frame.index, frame_counts));
        });
        let n = counts.len().max(1) as u64;
        let profiled: Vec<u64> = sums.iter().map(|s| (s / n).max(1)).collect();

        let mut activations = Vec::with_capacity(counts.len() * app.blocks().len());
        for (frame, counts) in &counts {
            for block in app.blocks() {
                let mut triggers = Vec::with_capacity(block.kernels.len());
                let mut actual = Vec::with_capacity(block.kernels.len());
                for &k in &block.kernels {
                    let tf = self.model.kernel_first_delay(block, k);
                    let tb = self.model.kernel_gap(k);
                    triggers.push(TriggerInstruction::new(
                        k,
                        profiled[usize::from(k.index())],
                        tf,
                        tb,
                    ));
                    actual.push(KernelActivity {
                        kernel: k,
                        executions: counts[usize::from(k.index())],
                        first_delay: tf,
                        gap: tb,
                    });
                }
                activations.push(BlockActivation {
                    block: block.id,
                    frame: *frame,
                    forecast: TriggerBlock::new(block.id, triggers),
                    actual,
                });
            }
        }
        Trace::new(format!("{}@video", app.name()), activations)
    }
}
