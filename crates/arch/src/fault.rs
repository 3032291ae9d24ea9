//! Deterministic fault injection for the hardware model.
//!
//! Real DPR fabrics are not the idealized substrate the rest of this crate
//! models: partial bitstreams arrive through the configuration port with
//! CRC protection and occasionally fail the check, logic in a container can
//! suffer transient single-event upsets during an ISE execution, and
//! containers can fail permanently (latch-up, aging). The run-time system's
//! central claim — graceful degradation through multi-grained alternatives —
//! is only testable if the hardware model can produce these events.
//!
//! [`FaultModel`] is a **seeded, counter-based** fault source: every draw
//! hashes `(seed, draw_index)` with a splitmix64 finalizer, so a run is a
//! pure function of the seed regardless of how call sites interleave. With
//! all rates at zero (the default) no draws are made at all, making the
//! fault layer bit-identical to the pre-fault hardware model — a zero-cost
//! default.
//!
//! The model distinguishes three fault classes:
//!
//! * [`FaultKind::BitstreamCrc`] — a load's CRC check fails at the end of
//!   streaming. The configuration-port time is wasted; the container stays
//!   empty; a retry may succeed.
//! * [`FaultKind::PermanentContainer`] — the target container dies during
//!   the load. It is removed from the available resource vector (the
//!   fabric marks it `Failed`), shrinking every later selection budget.
//! * [`FaultKind::TransientExec`] — an ISE execution produces a corrupt
//!   result. The simulator discards it and re-executes in a degraded mode.

use crate::clock::Cycles;
use crate::reconfig::FabricKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Classification of injected hardware faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The configuration port's CRC check rejected a streamed bitstream /
    /// context program. Transient: a retry may succeed.
    BitstreamCrc,
    /// A transient upset corrupted one ISE execution's result.
    TransientExec,
    /// The target PRC / CG-EDPE failed permanently and is removed from the
    /// available resources.
    PermanentContainer,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::BitstreamCrc => write!(f, "bitstream-crc"),
            FaultKind::TransientExec => write!(f, "transient-exec"),
            FaultKind::PermanentContainer => write!(f, "permanent-container"),
        }
    }
}

/// Details of a failed load attempt, carried by
/// [`ArchError::LoadFault`](crate::ArchError::LoadFault).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadFault {
    /// What went wrong ([`FaultKind::BitstreamCrc`] or
    /// [`FaultKind::PermanentContainer`]).
    pub kind: FaultKind,
    /// Which fabric's load failed.
    pub fabric: FabricKind,
    /// Configuration-port time consumed by the failed attempt (the cost of
    /// streaming data that was then thrown away).
    pub wasted: Cycles,
    /// Earliest time the port can accept the retry (the failed attempt holds
    /// the port until its scheduled completion).
    pub retry_at: Cycles,
}

impl fmt::Display for LoadFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault on {:?} load ({} cycles wasted, retry at {})",
            self.kind, self.fabric, self.wasted, self.retry_at
        )
    }
}

/// Seeded deterministic fault source.
///
/// # Example
///
/// ```
/// use mrts_arch::fault::FaultModel;
///
/// // The default model never faults and performs no draws.
/// assert!(FaultModel::none().is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Probability that a load attempt fails its CRC check.
    load_fault_rate: f64,
    /// Probability that one ISE execution suffers a transient upset.
    exec_fault_rate: f64,
    /// Probability that a load attempt kills its target container.
    permanent_fault_rate: f64,
    seed: u64,
    /// Monotone draw counter; part of the state so serialization round-trips
    /// mid-run reproduce the remaining fault sequence.
    draws: u64,
}

/// Fraction of the base rate used for permanent faults by
/// [`FaultModel::new`]: container kills are far rarer than CRC glitches.
pub(crate) const PERMANENT_FRACTION: f64 = 0.02;

impl FaultModel {
    /// The fault-free model (all rates zero; no draws are ever made).
    #[must_use]
    pub fn none() -> Self {
        FaultModel::with_rates(0.0, 0.0, 0.0, 0)
    }

    /// A model with one base `rate` applied per load and per execution, and
    /// `rate ×` `PERMANENT_FRACTION` (2 %) for permanent container faults — the
    /// single-knob form used by the `--fault-rate` sweeps.
    #[must_use]
    pub fn new(rate: f64, seed: u64) -> Self {
        FaultModel::with_rates(rate, rate, rate * PERMANENT_FRACTION, seed)
    }

    /// Fully explicit rates. All rates are clamped into `[0, 1]`.
    #[must_use]
    pub fn with_rates(load: f64, exec: f64, permanent: f64, seed: u64) -> Self {
        FaultModel {
            load_fault_rate: load.clamp(0.0, 1.0),
            exec_fault_rate: exec.clamp(0.0, 1.0),
            permanent_fault_rate: permanent.clamp(0.0, 1.0),
            seed,
            draws: 0,
        }
    }

    /// Whether the model can never produce a fault (zero-cost fast path).
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.load_fault_rate == 0.0
            && self.exec_fault_rate == 0.0
            && self.permanent_fault_rate == 0.0
    }

    /// The seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of draws consumed so far (diagnostics / determinism tests).
    #[must_use]
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// One uniform draw in `[0, 1)`, derived from `(seed, draw_index)`.
    fn draw(&mut self) -> f64 {
        self.draws += 1;
        let mut z = self.seed ^ self.draws.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides the fate of one load attempt. Exactly one draw per call
    /// (none if the model is fault-free): the permanent band is checked
    /// first, then the CRC band.
    pub(crate) fn next_load_fault(&mut self) -> Option<FaultKind> {
        if self.load_fault_rate == 0.0 && self.permanent_fault_rate == 0.0 {
            return None;
        }
        let u = self.draw();
        if u < self.permanent_fault_rate {
            Some(FaultKind::PermanentContainer)
        } else if u < self.permanent_fault_rate + self.load_fault_rate {
            Some(FaultKind::BitstreamCrc)
        } else {
            None
        }
    }

    /// Index of the first transient-faulted execution in a batch of `n`
    /// accelerated executions, if any — sampled with a **single** draw via
    /// the geometric distribution, so bulk fast-forwarding stays O(1) per
    /// epoch: `P(no fault in n) = (1-p)^n`, and conditional on a fault the
    /// index is `⌊ln(1-u′)/ln(1-p)⌋`.
    pub(crate) fn first_exec_fault(&mut self, n: u64) -> Option<u64> {
        let p = self.exec_fault_rate;
        if p == 0.0 || n == 0 {
            return None;
        }
        if p >= 1.0 {
            self.draws += 1; // keep the draw budget consistent
            return Some(0);
        }
        let u = self.draw();
        let log1mp = (1.0 - p).ln(); // < 0
        let survive_n = (n as f64 * log1mp).exp(); // (1-p)^n
        if u < survive_n {
            return None;
        }
        // u is uniform in [survive_n, 1): invert the geometric CDF. Use the
        // complementary value so precision is best where it matters.
        let k = ((1.0 - u).ln() / log1mp).floor();
        let k = if k.is_finite() && k >= 0.0 {
            k as u64
        } else {
            0
        };
        Some(k.min(n - 1))
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_makes_no_draws() {
        let mut fm = FaultModel::none();
        assert!(fm.is_none());
        for _ in 0..1_000 {
            assert_eq!(fm.next_load_fault(), None);
            assert_eq!(fm.first_exec_fault(10_000), None);
        }
        assert_eq!(fm.draws(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = FaultModel::new(0.1, 7);
        let mut b = FaultModel::new(0.1, 7);
        for _ in 0..200 {
            assert_eq!(a.next_load_fault(), b.next_load_fault());
            assert_eq!(a.first_exec_fault(50), b.first_exec_fault(50));
        }
        assert_eq!(a.draws(), b.draws());
        // Another seed gives another sequence.
        let mut c = FaultModel::new(0.1, 8);
        let seq_a: Vec<_> = (0..50)
            .map(|_| FaultModel::new(0.1, 7).draw().to_bits())
            .collect();
        let seq_c: Vec<_> = (0..50).map(|_| c.draw().to_bits()).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn load_fault_rates_are_respected() {
        let mut fm = FaultModel::with_rates(0.25, 0.0, 0.05, 99);
        let mut crc = 0u32;
        let mut perm = 0u32;
        let n = 20_000;
        for _ in 0..n {
            match fm.next_load_fault() {
                Some(FaultKind::BitstreamCrc) => crc += 1,
                Some(FaultKind::PermanentContainer) => perm += 1,
                Some(FaultKind::TransientExec) => unreachable!(),
                None => {}
            }
        }
        let crc_rate = f64::from(crc) / f64::from(n);
        let perm_rate = f64::from(perm) / f64::from(n);
        assert!((crc_rate - 0.25).abs() < 0.02, "crc rate {crc_rate}");
        assert!((perm_rate - 0.05).abs() < 0.01, "perm rate {perm_rate}");
    }

    #[test]
    fn exec_fault_geometric_matches_expectation() {
        // With p per execution, the chance a batch of n survives is
        // (1-p)^n; measure it over many batches.
        let p = 0.001;
        let n = 1_000u64;
        let mut fm = FaultModel::with_rates(0.0, p, 0.0, 123);
        let trials = 4_000;
        let mut survived = 0u32;
        let mut first_indices = Vec::new();
        for _ in 0..trials {
            match fm.first_exec_fault(n) {
                None => survived += 1,
                Some(k) => {
                    assert!(k < n);
                    first_indices.push(k);
                }
            }
        }
        let expected = (1.0 - p).powi(n as i32);
        let measured = f64::from(survived) / f64::from(trials);
        assert!(
            (measured - expected).abs() < 0.03,
            "survival {measured} vs {expected}"
        );
        // The faulted indices cover the whole batch, not just the start.
        assert!(first_indices.iter().any(|&k| k > n / 2));
    }

    #[test]
    fn certain_fault_hits_index_zero() {
        let mut fm = FaultModel::with_rates(0.0, 1.0, 0.0, 5);
        assert_eq!(fm.first_exec_fault(10), Some(0));
        let mut always = FaultModel::with_rates(1.0, 0.0, 0.0, 5);
        assert_eq!(always.next_load_fault(), Some(FaultKind::BitstreamCrc));
        // A seeded model with a 100% load-fault rate always faults.
        let mut fm = FaultModel::with_rates(1.0, 0.0, 0.0, 42);
        assert!(fm.next_load_fault().is_some());
    }

    #[test]
    fn serde_round_trip_preserves_draw_position() {
        let mut fm = FaultModel::new(0.05, 11);
        for _ in 0..17 {
            let _ = fm.next_load_fault();
        }
        let v = serde::Serialize::to_value(&fm);
        let back: FaultModel = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, fm);
        let mut a = fm.clone();
        let mut b = back;
        for _ in 0..50 {
            assert_eq!(a.next_load_fault(), b.next_load_fault());
        }
    }
}
