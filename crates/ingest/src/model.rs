//! A [`WorkloadModel`] driven entirely by a manifest.
//!
//! [`ManifestModel`] is what the rest of the system consumes after
//! ingestion: its `Application` comes from the lowering, its execution
//! frequencies from the manifest's rate rules and its inter-execution gaps
//! from the per-kernel `gap` fields. Trace construction stays in
//! [`mrts_workload::TraceBuilder`], shared with any hand-written model.

use mrts_arch::Cycles;
use mrts_ise::KernelId;
use mrts_workload::video::FrameStats;
use mrts_workload::{Application, WorkloadModel};

use crate::lower::{lower, Lowered};
use crate::manifest::Manifest;
use crate::rate::{FrameFeatures, RateRule};
use crate::IngestError;

/// A workload model lowered from a [`Manifest`].
#[derive(Debug)]
pub struct ManifestModel {
    app: Application,
    rates: Vec<RateRule>,
    gaps: Vec<Cycles>,
}

impl ManifestModel {
    /// Runs the pipeline on `manifest` and wraps the result as a model.
    ///
    /// # Errors
    ///
    /// Propagates any pass error.
    pub fn new(manifest: &Manifest) -> Result<Self, IngestError> {
        let Lowered {
            manifest: m, app, ..
        } = lower(manifest)?;
        Ok(ManifestModel {
            app,
            rates: m.kernels.iter().map(|k| k.rate.clone()).collect(),
            gaps: m.kernels.iter().map(|k| Cycles::new(k.gap)).collect(),
        })
    }
}

impl WorkloadModel for ManifestModel {
    fn application(&self) -> &Application {
        &self.app
    }

    /// Every kernel's count for `frame`, computing each frame feature the
    /// rules reference once.
    fn kernel_executions(&self, frame: &FrameStats) -> Vec<u64> {
        let features = FrameFeatures::new(frame);
        self.rates
            .iter()
            .map(|r| r.executions_in(&features))
            .collect()
    }

    fn kernel_gap(&self, kernel: KernelId) -> Cycles {
        self.gaps
            .get(usize::from(kernel.index()))
            .copied()
            .unwrap_or(Cycles::new(400))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_workload::video::VideoModel;

    /// One frame's features, computed once and shared by every rule, give
    /// each builtin kernel the count its rule gives on its own.
    #[test]
    fn shared_frame_features_give_each_rule_its_own_count() {
        let frames = VideoModel::paper_default(7).frames();
        for app in crate::BUILTIN_APPS {
            let model = crate::model(app).expect("builtin lowers");
            for frame in frames.iter().take(60) {
                let own: Vec<u64> = model.rates.iter().map(|r| r.executions(frame)).collect();
                assert_eq!(model.kernel_executions(frame), own, "{app}");
            }
        }
    }
}
