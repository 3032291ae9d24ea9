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
use mrts_ise::{BlockId, KernelId, TriggerBlock};
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
///
/// # Example
///
/// ```
/// use mrts_core::mpu::Mpu;
/// use mrts_ise::{BlockId, KernelId, TriggerBlock, TriggerInstruction};
/// use mrts_workload::KernelActivity;
/// use mrts_arch::Cycles;
///
/// let mut mpu = Mpu::new(0.5);
/// let forecast = TriggerBlock::new(BlockId(0), vec![
///     TriggerInstruction::new(KernelId(0), 1_000, Cycles::new(500), Cycles::new(300)),
/// ]);
/// // First block: no observations yet, the compile-time forecast passes through.
/// let corrected = mpu.correct(&forecast);
/// assert_eq!(corrected.triggers[0].expected_executions, 1_000);
///
/// // The kernel actually ran 3 000 times: the first observation seeds the
/// // predictor, further ones are blended with rate alpha.
/// let seen = |e| KernelActivity {
///     kernel: KernelId(0), executions: e,
///     first_delay: Cycles::new(500), gap: Cycles::new(300),
/// };
/// mpu.observe(&[seen(3_000)]);
/// assert_eq!(mpu.correct(&forecast).triggers[0].expected_executions, 3_000);
/// mpu.observe(&[seen(1_000)]);
/// // 3000 + 0.5 * (1000 - 3000) = 2000.
/// assert_eq!(mpu.correct(&forecast).triggers[0].expected_executions, 2_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mpu {
    alpha: f64,
    predictors: HashMap<KernelId, Predictor>,
}

impl Mpu {
    /// Creates an MPU with learning rate `alpha` (clamped into
    /// `0.0..=1.0`). `alpha = 0` disables adaptation (the compile-time
    /// forecast is always used); `alpha = 1` trusts only the last
    /// observation.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        Mpu {
            alpha: alpha.clamp(0.0, 1.0),
            predictors: HashMap::new(),
        }
    }

    /// The learning rate.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of kernels with at least one observation.
    #[must_use]
    pub fn tracked_kernels(&self) -> usize {
        self.predictors.len()
    }

    /// Replaces the forecast's `e`/`tb` values with the MPU's learned
    /// estimates where observations exist; kernels never observed pass
    /// through unchanged.
    #[must_use]
    pub fn correct(&self, forecast: &TriggerBlock) -> TriggerBlock {
        let mut out = TriggerBlock::new(forecast.block, Vec::new());
        self.correct_into(forecast, &mut out);
        out
    }

    /// [`Mpu::correct`] writing into a caller-owned block, reusing its
    /// trigger buffer (the per-block hot path's allocation hygiene).
    pub fn correct_into(&self, forecast: &TriggerBlock, out: &mut TriggerBlock) {
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
    pub fn observe(&mut self, observed: &[KernelActivity]) {
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
    #[must_use]
    pub fn estimate(&self, kernel: KernelId) -> Option<f64> {
        self.predictors.get(&kernel).map(|p| p.executions)
    }

    /// Mean absolute prediction error against a sequence of (forecast,
    /// observation) pairs — a diagnostic used by the ablation benches.
    #[must_use]
    pub fn mean_abs_error(observations: &[u64], predictions: &[f64]) -> f64 {
        if observations.is_empty() {
            return 0.0;
        }
        observations
            .iter()
            .zip(predictions)
            .map(|(o, p)| (*o as f64 - p).abs())
            .sum::<f64>()
            / observations.len() as f64
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

/// How often one block followed a given context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct SuccessorCount {
    block: BlockId,
    count: u64,
}

/// The transition counters of one observed context (a suffix of the block
/// history, 1 to `order` blocks long). Successor rows are kept sorted by
/// block id; the table itself is sorted by `(context length, context)` —
/// no hash maps anywhere, so serialisation order (and therefore the serde
/// state a golden can pin) is fully deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ContextStats {
    context: Vec<BlockId>,
    successors: Vec<SuccessorCount>,
    total: u64,
}

/// An online order-*k* Markov (PPM-style) model of the application's
/// functional-block sequence.
///
/// The MPU's per-kernel delta rule corrects *how a block behaves*; the
/// flow predictor learns *which block comes next*. After every observed
/// activation it updates one transition counter per context length
/// (`1..=order` most-recent blocks); a prediction walks the contexts
/// longest-first and reports the successor distribution of the longest
/// context that has been seen before — standard prediction by partial
/// matching, restricted to exact-match contexts so every probability is a
/// ratio of two integer counters (deterministic across platforms).
///
/// Tie-breaks are deterministic by construction: successors of equal
/// count rank by **lower block id** (rows are stored block-ascending and
/// ranking sorts by count descending with a stable sort).
///
/// # Example
///
/// ```
/// use mrts_core::mpu::FlowPredictor;
/// use mrts_ise::BlockId;
///
/// let mut fp = FlowPredictor::new(2);
/// for _ in 0..3 {
///     fp.observe(BlockId(0));
///     fp.observe(BlockId(1));
///     fp.observe(BlockId(2));
/// }
/// // After ...1, 2 the model has only ever seen block 0.
/// let (next, confidence) = fp.best().unwrap();
/// assert_eq!(next, BlockId(0));
/// assert!(confidence > 0.99);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowPredictor {
    order: usize,
    history: Vec<BlockId>,
    contexts: Vec<ContextStats>,
    observations: u64,
}

impl FlowPredictor {
    /// Maximum supported context order (a history-table model beyond this
    /// depth would memorise the trace rather than predict it).
    pub const MAX_ORDER: usize = 8;

    /// Creates a predictor with context order `order` (clamped into
    /// `1..=MAX_ORDER`).
    #[must_use]
    pub fn new(order: usize) -> Self {
        FlowPredictor {
            order: order.clamp(1, Self::MAX_ORDER),
            history: Vec::new(),
            contexts: Vec::new(),
            observations: 0,
        }
    }

    /// The context order.
    #[must_use]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Total block activations observed.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.observations
    }

    fn context_index(&self, context: &[BlockId]) -> Result<usize, usize> {
        self.contexts.binary_search_by(|c| {
            c.context
                .len()
                .cmp(&context.len())
                .then_with(|| c.context.as_slice().cmp(context))
        })
    }

    /// Records one observed block activation: bumps the transition counter
    /// `context → block` for every context suffix of the current history,
    /// then appends `block` to the history window.
    pub fn observe(&mut self, block: BlockId) {
        let depth = self.order.min(self.history.len());
        for len in 1..=depth {
            let start = self.history.len() - len;
            let slot = self.context_index(&self.history[start..]);
            let ctx = match slot {
                Ok(i) => &mut self.contexts[i],
                Err(i) => {
                    self.contexts.insert(
                        i,
                        ContextStats {
                            context: self.history[start..].to_vec(),
                            successors: Vec::new(),
                            total: 0,
                        },
                    );
                    &mut self.contexts[i]
                }
            };
            match ctx.successors.binary_search_by_key(&block, |s| s.block) {
                Ok(i) => ctx.successors[i].count += 1,
                Err(i) => ctx.successors.insert(i, SuccessorCount { block, count: 1 }),
            }
            ctx.total += 1;
        }
        self.history.push(block);
        if self.history.len() > self.order {
            self.history.remove(0);
        }
        self.observations += 1;
    }

    /// Ranks the likely next blocks given the current history, writing
    /// `(block, confidence)` pairs into `out` most-confident first
    /// (confidence = transition count / context total of the **longest**
    /// previously seen context — PPM with exact-match backoff). `out` is
    /// left empty when no context matches (cold start).
    pub fn predict_into(&self, out: &mut Vec<(BlockId, f64)>) {
        out.clear();
        for len in (1..=self.order.min(self.history.len())).rev() {
            let start = self.history.len() - len;
            if let Ok(i) = self.context_index(&self.history[start..]) {
                let ctx = &self.contexts[i];
                out.extend(ctx.successors.iter().map(|s| {
                    debug_assert!(ctx.total > 0);
                    (s.block, s.count as f64 / ctx.total as f64)
                }));
                // Rows arrive block-ascending; a stable sort by descending
                // count therefore breaks ties towards the lower block id.
                out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                return;
            }
        }
    }

    /// The ranked next-block predictions (allocating convenience wrapper
    /// around [`Self::predict_into`]).
    #[must_use]
    pub fn predictions(&self) -> Vec<(BlockId, f64)> {
        let mut out = Vec::new();
        self.predict_into(&mut out);
        out
    }

    /// The single most likely next block, if any context matches.
    #[must_use]
    pub fn best(&self) -> Option<(BlockId, f64)> {
        self.predictions().first().copied()
    }
}

impl Default for FlowPredictor {
    /// Order 2: one block of look-behind beyond the current block —
    /// enough to disambiguate the A→B vs A→C branches of a frame loop
    /// without memorising whole frames.
    fn default() -> Self {
        FlowPredictor::new(2)
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
        let c = mpu.correct(&f);
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
        let c = mpu.correct(&forecast(123));
        assert_eq!(c.triggers[0].expected_executions, 4_000);
    }

    #[test]
    fn alpha_is_clamped() {
        assert_eq!(Mpu::new(7.0).alpha(), 1.0);
        assert_eq!(Mpu::new(-1.0).alpha(), 0.0);
    }

    #[test]
    fn flow_predictor_learns_a_periodic_sequence() {
        let mut fp = FlowPredictor::new(2);
        for _ in 0..4 {
            for b in [0u16, 1, 2, 3] {
                fp.observe(BlockId(b));
            }
        }
        // History ends ... 2, 3 — the only successor ever seen is 0.
        let (next, conf) = fp.best().unwrap();
        assert_eq!(next, BlockId(0));
        assert!((conf - 1.0).abs() < 1e-12);
        assert_eq!(fp.observations(), 16);
    }

    #[test]
    fn flow_predictor_longest_context_disambiguates() {
        // Order-1 cannot tell A→B from A→C apart in A B A C A B A C...;
        // order-2 contexts [C A] and [B A] predict perfectly.
        let mut fp = FlowPredictor::new(2);
        let seq = [0u16, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2];
        for b in seq {
            fp.observe(BlockId(b));
        }
        // History ends ... 0, 2 → next is always 0.
        assert_eq!(fp.best().unwrap().0, BlockId(0));
        fp.observe(BlockId(0));
        // History ends ... 2, 0 → order-2 context [2, 0] always led to 1.
        let (next, conf) = fp.best().unwrap();
        assert_eq!(next, BlockId(1));
        assert!((conf - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flow_predictor_tie_breaks_to_lower_block_id() {
        let mut fp = FlowPredictor::new(1);
        // From block 0: successors 2 and 1 seen equally often (2 first).
        for b in [0u16, 2, 0, 1, 0, 2, 0, 1, 0] {
            fp.observe(BlockId(b));
        }
        let ranked = fp.predictions();
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].0, BlockId(1));
        assert_eq!(ranked[1].0, BlockId(2));
        assert!((ranked[0].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flow_predictor_cold_start_predicts_nothing() {
        let mut fp = FlowPredictor::new(3);
        assert!(fp.best().is_none());
        fp.observe(BlockId(5));
        // One block of history but no transition observed yet.
        assert!(fp.best().is_none());
        fp.observe(BlockId(6));
        // 5→6 is learned now, but block 6's own successor is unknown.
        assert!(fp.best().is_none());
        fp.observe(BlockId(5));
        // History ends at 5 again, whose observed successor is 6.
        assert_eq!(fp.best().unwrap().0, BlockId(6));
    }

    #[test]
    fn flow_predictor_order_is_clamped() {
        assert_eq!(FlowPredictor::new(0).order(), 1);
        assert_eq!(FlowPredictor::new(99).order(), FlowPredictor::MAX_ORDER);
    }

    #[test]
    fn flow_predictor_serde_state_is_pinned() {
        let mut fp = FlowPredictor::new(2);
        for b in [0u16, 1, 0, 1] {
            fp.observe(BlockId(b));
        }
        let json = serde_json::to_string(&fp).unwrap();
        // The serialised state is stable (sorted vectors, no hash maps):
        // goldens may pin it byte-for-byte.
        assert_eq!(
            json,
            "{\"order\":2,\"history\":[0,1],\"contexts\":[\
             {\"context\":[0],\"successors\":[{\"block\":1,\"count\":2}],\"total\":2},\
             {\"context\":[1],\"successors\":[{\"block\":0,\"count\":1}],\"total\":1},\
             {\"context\":[0,1],\"successors\":[{\"block\":0,\"count\":1}],\"total\":1},\
             {\"context\":[1,0],\"successors\":[{\"block\":1,\"count\":1}],\"total\":1}],\
             \"observations\":4}"
        );
        let back: FlowPredictor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fp);
    }

    #[test]
    fn mean_abs_error_helper() {
        let obs = [100u64, 200, 300];
        let pred = [110.0, 190.0, 300.0];
        assert!((Mpu::mean_abs_error(&obs, &pred) - (10.0 + 10.0) / 3.0).abs() < 1e-12);
        assert_eq!(Mpu::mean_abs_error(&[], &[]), 0.0);
    }
}
