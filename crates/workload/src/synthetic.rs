//! Synthetic (non-video) trace patterns for tests, benches and ablations.
//!
//! These generators produce controlled execution-count patterns — steps,
//! ramps and bursts — so unit tests and ablation benches can probe the
//! run-time system's reactions without the full video model.

use crate::app::{Application, WorkloadModel};
use crate::trace::{BlockActivation, KernelActivity, Trace};
use mrts_ise::{TriggerBlock, TriggerInstruction};
use serde::{Deserialize, Serialize};

/// Shape of a synthetic per-activation execution-count series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Pattern {
    /// The same count every activation (a forecast that is always right).
    Constant(u64),
    /// Jumps from `low` to `high` at activation `at`.
    Step {
        /// Count before the step.
        low: u64,
        /// Count from the step onwards.
        high: u64,
        /// Activation index of the step.
        at: usize,
    },
    /// Linear ramp from `from` to `to` across all activations.
    Ramp {
        /// Count at the first activation.
        from: u64,
        /// Count at the last activation.
        to: u64,
    },
    /// `high` every `period`-th activation, `low` otherwise.
    Burst {
        /// Baseline count.
        low: u64,
        /// Burst count.
        high: u64,
        /// Burst period in activations.
        period: usize,
    },
}

impl Pattern {
    /// The count at activation `i` of `n`.
    #[must_use]
    pub fn value_at(&self, i: usize, n: usize) -> u64 {
        match *self {
            Pattern::Constant(c) => c,
            Pattern::Step { low, high, at } => {
                if i < at {
                    low
                } else {
                    high
                }
            }
            Pattern::Ramp { from, to } => {
                if n <= 1 {
                    from
                } else {
                    let t = i as f64 / (n - 1) as f64;
                    (from as f64 + t * (to as f64 - from as f64)).round() as u64
                }
            }
            Pattern::Burst { low, high, period } => {
                if period > 0 && i.is_multiple_of(period) {
                    high
                } else {
                    low
                }
            }
        }
    }
}

/// Builds a synthetic trace over an application: every kernel of every
/// block follows its own [`Pattern`] for `activations` rounds.
///
/// The forecast of each trigger is the mean of the pattern, mimicking the
/// offline profiling of the video-based builder.
///
/// # Panics
///
/// Panics if `patterns.len()` differs from the application's kernel count.
#[must_use]
pub fn synthetic_trace(
    model: &dyn WorkloadModel,
    patterns: &[Pattern],
    activations: usize,
) -> Trace {
    let app: &Application = model.application();
    assert_eq!(
        patterns.len(),
        app.kernel_count(),
        "one pattern per kernel required"
    );
    // Profiling mean per kernel.
    let means: Vec<u64> = patterns
        .iter()
        .map(|p| {
            let sum: u64 = (0..activations).map(|i| p.value_at(i, activations)).sum();
            (sum / activations.max(1) as u64).max(1)
        })
        .collect();

    let mut out = Vec::new();
    for round in 0..activations {
        for block in app.blocks() {
            let mut triggers = Vec::new();
            let mut actual = Vec::new();
            for &k in &block.kernels {
                let tf = model.kernel_first_delay(block, k);
                let tb = model.kernel_gap(k);
                let ki = usize::from(k.index());
                triggers.push(TriggerInstruction::new(k, means[ki], tf, tb));
                actual.push(KernelActivity {
                    kernel: k,
                    executions: patterns[ki].value_at(round, activations).max(1),
                    first_delay: tf,
                    gap: tb,
                });
            }
            out.push(BlockActivation {
                block: block.id,
                frame: round as u32,
                forecast: TriggerBlock::new(block.id, triggers),
                actual,
            });
        }
    }
    Trace::new(format!("{}@synthetic", app.name()), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::FunctionalBlock;
    use crate::video::FrameStats;
    use mrts_ise::datapath::{DataPathGraph, OpKind};
    use mrts_ise::{BlockId, KernelId, KernelSpec};

    /// One kernel in one block; `synthetic_trace` never asks it for
    /// per-frame counts.
    struct OneKernel(Application);

    impl WorkloadModel for OneKernel {
        fn application(&self) -> &Application {
            &self.0
        }

        fn kernel_executions(&self, _frame: &FrameStats) -> Vec<u64> {
            vec![1]
        }
    }

    fn one_kernel() -> OneKernel {
        let mut g = DataPathGraph::builder("abs");
        let x = g.input();
        let _ = g.op(OpKind::Abs, &[x]);
        let spec = KernelSpec::new("k").data_path(g.finish().expect("valid"), 4);
        OneKernel(Application::new(
            "one",
            vec![spec],
            vec![FunctionalBlock {
                id: BlockId(0),
                name: "main".into(),
                kernels: vec![KernelId(0)],
            }],
        ))
    }

    #[test]
    fn pattern_values() {
        assert_eq!(Pattern::Constant(5).value_at(3, 10), 5);
        let step = Pattern::Step {
            low: 1,
            high: 9,
            at: 4,
        };
        assert_eq!(step.value_at(3, 10), 1);
        assert_eq!(step.value_at(4, 10), 9);
        let ramp = Pattern::Ramp { from: 0, to: 100 };
        assert_eq!(ramp.value_at(0, 11), 0);
        assert_eq!(ramp.value_at(10, 11), 100);
        assert_eq!(ramp.value_at(5, 11), 50);
        let burst = Pattern::Burst {
            low: 2,
            high: 20,
            period: 4,
        };
        assert_eq!(burst.value_at(0, 8), 20);
        assert_eq!(burst.value_at(1, 8), 2);
        assert_eq!(burst.value_at(4, 8), 20);
    }

    #[test]
    fn synthetic_trace_has_pattern_counts() {
        let t = synthetic_trace(
            &one_kernel(),
            &[Pattern::Step {
                low: 10,
                high: 1_000,
                at: 2,
            }],
            4,
        );
        assert_eq!(t.len(), 4);
        let counts: Vec<u64> = t
            .activations()
            .iter()
            .map(|a| a.activity_of(KernelId(0)).unwrap().executions)
            .collect();
        assert_eq!(counts, vec![10, 10, 1_000, 1_000]);
        // Forecast is the mean of the series.
        let f = t.activations()[0]
            .forecast
            .trigger_for(KernelId(0))
            .unwrap()
            .expected_executions;
        assert_eq!(f, (10 + 10 + 1_000 + 1_000) / 4);
    }

    #[test]
    #[should_panic(expected = "one pattern per kernel")]
    fn pattern_count_mismatch_panics() {
        let _ = synthetic_trace(&one_kernel(), &[], 4);
    }
}
