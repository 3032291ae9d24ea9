//! The Monitoring & Prediction Unit (MPU).
//!
//! *"The relative correctness of these numbers affects the quality of the
//! run-time selection decision. They are initially obtained from an offline
//! profiling and at run time the MPU monitors and updates them. Since the
//! number of kernel executions may change at run time (due to, for example,
//! changing input data), we have implemented a lightweight error
//! back-propagation scheme in our run-time system that updates the
//! monitored values."* (Section 4)
//!
//! The MPU keeps one predictor per kernel. Each predictor starts from the
//! compile-time (profiled) forecast and, after every functional-block
//! activation, back-propagates the observation error with a constant
//! learning rate: `ê ← ê + α·(observed − ê)` — the standard single-weight
//! delta rule of the referenced scheme \[12\]. The same filter tracks the
//! inter-execution gap `tb`.

use mrts_arch::Cycles;
use mrts_ise::{KernelId, TriggerBlock};
use mrts_workload::KernelActivity;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-kernel prediction state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Predictor {
    executions: f64,
    gap: f64,
    observations: u64,
}

/// The Monitoring & Prediction Unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Mpu {
    alpha: f64,
    predictors: HashMap<KernelId, Predictor>,
}

impl Mpu {
    /// Creates an MPU with learning rate `alpha` (clamped into
    /// `0.0..=1.0`). `alpha = 0` disables adaptation (the compile-time
    /// forecast is always used); `alpha = 1` trusts only the last
    /// observation.
    #[must_use]
    pub(crate) fn new(alpha: f64) -> Self {
        Mpu {
            alpha: alpha.clamp(0.0, 1.0),
            predictors: HashMap::new(),
        }
    }

    /// The learning rate.
    #[cfg(test)]
    fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of kernels with at least one observation.
    #[cfg(test)]
    pub(crate) fn tracked_kernels(&self) -> usize {
        self.predictors.len()
    }

    /// Writes `forecast` into `out` with its `e`/`tb` values replaced by
    /// the MPU's learned estimates where observations exist; kernels never
    /// observed pass through unchanged. Reuses `out`'s trigger buffer (the
    /// per-block hot path's allocation hygiene).
    pub(crate) fn correct_into(&self, forecast: &TriggerBlock, out: &mut TriggerBlock) {
        out.block = forecast.block;
        out.triggers.clear();
        out.triggers.extend(forecast.iter().map(|t| {
            match self.predictors.get(&t.kernel) {
                Some(p) => t
                    .with_executions(p.executions.round().max(1.0) as u64)
                    .with_time_between(Cycles::new(p.gap.round().max(0.0) as u64)),
                None => *t,
            }
        }));
    }

    /// Feeds back the actually observed behaviour of one functional-block
    /// activation (error back-propagation update).
    pub(crate) fn observe(&mut self, observed: &[KernelActivity]) {
        for a in observed {
            let p = self.predictors.entry(a.kernel).or_insert(Predictor {
                executions: a.executions as f64,
                gap: a.gap.get() as f64,
                observations: 0,
            });
            if p.observations > 0 || self.alpha == 0.0 {
                p.executions += self.alpha * (a.executions as f64 - p.executions);
                p.gap += self.alpha * (a.gap.get() as f64 - p.gap);
            }
            p.observations += 1;
        }
    }

    /// The current execution estimate for a kernel (if observed).
    #[cfg(test)]
    pub(crate) fn estimate(&self, kernel: KernelId) -> Option<f64> {
        self.predictors.get(&kernel).map(|p| p.executions)
    }
}

impl Default for Mpu {
    /// The learning rate used throughout the evaluation (a half-life of
    /// roughly two activations — responsive to the frame-to-frame changes
    /// of Fig. 2 without oscillating on noise).
    fn default() -> Self {
        Mpu::new(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_ise::{BlockId, TriggerInstruction};

    fn activity(e: u64) -> KernelActivity {
        KernelActivity {
            kernel: KernelId(0),
            executions: e,
            first_delay: Cycles::new(100),
            gap: Cycles::new(200),
        }
    }

    fn correct(mpu: &Mpu, forecast: &TriggerBlock) -> TriggerBlock {
        let mut out = TriggerBlock::new(forecast.block, Vec::new());
        mpu.correct_into(forecast, &mut out);
        out
    }

    fn forecast(e: u64) -> TriggerBlock {
        TriggerBlock::new(
            BlockId(0),
            vec![TriggerInstruction::new(
                KernelId(0),
                e,
                Cycles::new(100),
                Cycles::new(200),
            )],
        )
    }

    #[test]
    fn first_observation_seeds_the_predictor() {
        let mut mpu = Mpu::new(0.5);
        mpu.observe(&[activity(4_000)]);
        // Seeded directly with the first observation, not blended with the
        // (unknown to the MPU) compile-time value.
        assert_eq!(mpu.estimate(KernelId(0)), Some(4_000.0));
        assert_eq!(mpu.tracked_kernels(), 1);
    }

    #[test]
    fn converges_towards_repeated_observations() {
        let mut mpu = Mpu::new(0.5);
        for _ in 0..12 {
            mpu.observe(&[activity(5_000)]);
        }
        let est = mpu.estimate(KernelId(0)).unwrap();
        assert!((est - 5_000.0).abs() < 1.0);
    }

    #[test]
    fn tracks_step_changes_geometrically() {
        let mut mpu = Mpu::new(0.5);
        mpu.observe(&[activity(1_000)]);
        mpu.observe(&[activity(3_000)]);
        assert_eq!(mpu.estimate(KernelId(0)), Some(2_000.0));
        mpu.observe(&[activity(3_000)]);
        assert_eq!(mpu.estimate(KernelId(0)), Some(2_500.0));
    }

    #[test]
    fn correct_overrides_only_observed_kernels() {
        let mut mpu = Mpu::new(1.0);
        mpu.observe(&[activity(9_999)]);
        let f = TriggerBlock::new(
            BlockId(0),
            vec![
                TriggerInstruction::new(KernelId(0), 10, Cycles::new(1), Cycles::new(2)),
                TriggerInstruction::new(KernelId(7), 77, Cycles::new(3), Cycles::new(4)),
            ],
        );
        let c = correct(&mpu, &f);
        assert_eq!(c.triggers[0].expected_executions, 9_999);
        assert_eq!(c.triggers[0].time_between, Cycles::new(200));
        // Unobserved kernel: untouched.
        assert_eq!(c.triggers[1].expected_executions, 77);
        assert_eq!(c.triggers[1].time_between, Cycles::new(4));
        // tf is never rewritten (it is a property of the block's code).
        assert_eq!(c.triggers[0].time_to_first, Cycles::new(1));
    }

    #[test]
    fn alpha_zero_disables_adaptation() {
        let mut mpu = Mpu::new(0.0);
        mpu.observe(&[activity(4_000)]);
        mpu.observe(&[activity(8_000)]);
        // alpha = 0: the estimate stays at its seed.
        assert_eq!(mpu.estimate(KernelId(0)), Some(4_000.0));
        let c = correct(&mpu, &forecast(123));
        assert_eq!(c.triggers[0].expected_executions, 4_000);
    }

    #[test]
    fn observations_seed_then_blend_into_the_forecast() {
        let mut mpu = Mpu::new(0.5);
        let forecast = TriggerBlock::new(
            BlockId(0),
            vec![TriggerInstruction::new(
                KernelId(0),
                1_000,
                Cycles::new(500),
                Cycles::new(300),
            )],
        );
        let mut corrected = TriggerBlock::new(BlockId(0), Vec::new());
        // First block: no observations yet, the compile-time forecast passes through.
        mpu.correct_into(&forecast, &mut corrected);
        assert_eq!(corrected.triggers[0].expected_executions, 1_000);

        // The kernel actually ran 3 000 times: the first observation seeds the
        // predictor, further ones are blended with rate alpha.
        let seen = |e| KernelActivity {
            kernel: KernelId(0),
            executions: e,
            first_delay: Cycles::new(500),
            gap: Cycles::new(300),
        };
        mpu.observe(&[seen(3_000)]);
        mpu.correct_into(&forecast, &mut corrected);
        assert_eq!(corrected.triggers[0].expected_executions, 3_000);
        mpu.observe(&[seen(1_000)]);
        // 3000 + 0.5 * (1000 - 3000) = 2000.
        mpu.correct_into(&forecast, &mut corrected);
        assert_eq!(corrected.triggers[0].expected_executions, 2_000);
    }

    #[test]
    fn alpha_is_clamped() {
        assert_eq!(Mpu::new(7.0).alpha(), 1.0);
        assert_eq!(Mpu::new(-1.0).alpha(), 0.0);
    }
}
