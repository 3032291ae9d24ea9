//! Admission control: feasibility of an SLO mix against slice capacity.
//!
//! The schedulability test is the classic utilization bound, integerised:
//! each tenant with a deadline contributes `estimated service per block ×
//! 1_000_000 / period` parts-per-million of the core, and the mix is
//! feasible while the sum stays ≤ one full core (1 000 000 ppm). The estimate
//! is *optimistic* — it prices each block at the best ISE latency that
//! fits the tenant's fabric slice — so admission is deliberately
//! permissive: it refuses only sessions that cannot meet their deadlines
//! even under ideal acceleration, and leaves marginal mixes to the
//! degradation ladder.
//!
//! Tenants without deadlines cost 0 ppm and are always admitted; they run
//! in the slack and are the ladder's first-choice victims.

use std::fmt;
use std::str::FromStr;

/// What to do with a session that fails the feasibility test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// No admission control: everything runs (the pre-SLO behaviour).
    #[default]
    Off,
    /// Infeasible sessions are rejected outright and never run.
    Reject,
    /// Infeasible sessions wait; they are re-tested whenever an admitted
    /// session finishes and its utilization frees up.
    Queue,
}

impl AdmissionPolicy {
    /// CLI/stats label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AdmissionPolicy::Off => "off",
            AdmissionPolicy::Reject => "reject",
            AdmissionPolicy::Queue => "queue",
        }
    }
}

impl fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for AdmissionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(AdmissionPolicy::Off),
            "reject" => Ok(AdmissionPolicy::Reject),
            "queue" => Ok(AdmissionPolicy::Queue),
            other => Err(format!(
                "unknown admission policy '{other}' (off|reject|queue)"
            )),
        }
    }
}

/// Verdict for one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Runs from the start (or from the moment the verdict flips).
    Admitted,
    /// Waiting for utilization to free up (Queue policy only).
    Queued,
    /// Never runs (Reject policy only).
    Rejected,
}

impl AdmissionOutcome {
    /// Stats label; `admitted` / `queued` / `rejected`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AdmissionOutcome::Admitted => "admitted",
            AdmissionOutcome::Queued => "queued",
            AdmissionOutcome::Rejected => "rejected",
        }
    }
}

/// One full core, in parts per million.
pub(crate) const FULL_UTILIZATION_PPM: u64 = 1_000_000;

/// Tracks per-session utilization and verdicts over a run.
///
/// Sessions are priced one by one as they arrive
/// ([`AdmissionController::offer`]), free their utilization when they
/// finish ([`AdmissionController::complete`]), and queued sessions are
/// re-tested individually ([`AdmissionController::retry_one`]) or let in
/// regardless of the bound ([`AdmissionController::admit_anyway`]). The
/// order of those calls is the caller's: the multitask runner offers an
/// up-front batch highest criticality first, the fleet in arrival order.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    utilization_ppm: Vec<u64>,
    outcome: Vec<AdmissionOutcome>,
    /// Which sessions have finished …
    done: Vec<bool>,
    /// … and the utilization sum of admitted, not-yet-finished sessions.
    live_load: u128,
}

impl AdmissionController {
    /// A controller with no sessions yet.
    #[must_use]
    pub fn new(policy: AdmissionPolicy) -> Self {
        AdmissionController {
            policy,
            utilization_ppm: Vec::new(),
            outcome: Vec::new(),
            done: Vec::new(),
            live_load: 0,
        }
    }

    /// Current verdict for session `i`.
    #[must_use]
    pub fn outcome(&self, i: usize) -> AdmissionOutcome {
        self.outcome[i]
    }

    /// Whether `u` more ppm fit next to the live load. Zero-utilization
    /// sessions (no SLO) always fit.
    fn fits(&self, u: u128) -> bool {
        u == 0 || self.live_load + u <= u128::from(FULL_UTILIZATION_PPM)
    }

    /// Prices one newly arrived session against the current live load and
    /// returns its controller index plus verdict. Zero-utilization
    /// sessions are always admitted; under [`AdmissionPolicy::Off`]
    /// everything is.
    pub fn offer(&mut self, utilization_ppm: u64) -> (usize, AdmissionOutcome) {
        let u = u128::from(utilization_ppm);
        let verdict = if self.policy == AdmissionPolicy::Off || self.fits(u) {
            self.live_load += u;
            AdmissionOutcome::Admitted
        } else {
            match self.policy {
                AdmissionPolicy::Reject => AdmissionOutcome::Rejected,
                _ => AdmissionOutcome::Queued,
            }
        };
        self.utilization_ppm.push(utilization_ppm);
        self.outcome.push(verdict);
        self.done.push(false);
        (self.outcome.len() - 1, verdict)
    }

    /// Session `i` finished: its utilization leaves the live load.
    /// Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a session index.
    pub fn complete(&mut self, i: usize) {
        if self.done[i] {
            return;
        }
        self.done[i] = true;
        if self.outcome[i] == AdmissionOutcome::Admitted {
            self.live_load = self
                .live_load
                .saturating_sub(u128::from(self.utilization_ppm[i]));
        }
    }

    /// Re-tests one queued session (callers retry whenever capacity frees
    /// up). Flips it to `Admitted` and returns `true` if its utilization
    /// now fits.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a session index.
    pub fn retry_one(&mut self, i: usize) -> bool {
        if self.outcome[i] != AdmissionOutcome::Queued {
            return false;
        }
        let u = u128::from(self.utilization_ppm[i]);
        if self.fits(u) {
            self.live_load += u;
            self.outcome[i] = AdmissionOutcome::Admitted;
            return true;
        }
        false
    }

    /// Unconditionally admits queued session `i` (the livelock escape: a
    /// session whose utilization never fits must not block the queue
    /// forever once the core sits idle — running overloaded beats not
    /// running at all, and the ladder absorbs the overload).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a session index.
    pub fn admit_anyway(&mut self, i: usize) {
        if self.outcome[i] != AdmissionOutcome::Admitted {
            self.outcome[i] = AdmissionOutcome::Admitted;
            self.live_load += u128::from(self.utilization_ppm[i]);
        }
    }

    /// The admitted-and-live utilization sum, in ppm.
    #[must_use]
    pub fn live_load_ppm(&self) -> u64 {
        u64::try_from(self.live_load).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_admits_everything() {
        let mut c = AdmissionController::new(AdmissionPolicy::Off);
        for i in 0..3 {
            assert_eq!(c.offer(900_000), (i, AdmissionOutcome::Admitted));
        }
        assert_eq!(c.live_load_ppm(), 2_700_000);
    }

    #[test]
    fn zero_utilization_sessions_always_admitted() {
        let mut c = AdmissionController::new(AdmissionPolicy::Reject);
        assert_eq!(c.offer(1_000_000), (0, AdmissionOutcome::Admitted));
        assert_eq!(c.offer(0), (1, AdmissionOutcome::Admitted));
        assert_eq!(c.offer(500_000), (2, AdmissionOutcome::Rejected));
    }

    #[test]
    fn offer_complete_retry_cycle() {
        let mut c = AdmissionController::new(AdmissionPolicy::Queue);
        assert_eq!(c.live_load_ppm(), 0);
        // First session fits, second queues, zero-utilization always runs.
        assert_eq!(c.offer(700_000), (0, AdmissionOutcome::Admitted));
        assert_eq!(c.offer(700_000), (1, AdmissionOutcome::Queued));
        assert_eq!(c.offer(0), (2, AdmissionOutcome::Admitted));
        assert_eq!(c.live_load_ppm(), 700_000);
        // Still over the bound: the queued session stays queued.
        assert!(!c.retry_one(1));
        // Session 0 finishes; its utilization frees and the retry succeeds.
        c.complete(0);
        c.complete(0); // idempotent
        assert_eq!(c.live_load_ppm(), 0);
        assert!(c.retry_one(1));
        assert_eq!(c.outcome(1), AdmissionOutcome::Admitted);
        assert_eq!(c.live_load_ppm(), 700_000);
        // Retrying a non-queued session is a no-op.
        assert!(!c.retry_one(1));
    }

    #[test]
    fn reject_and_admit_anyway() {
        let mut c = AdmissionController::new(AdmissionPolicy::Reject);
        assert_eq!(c.offer(900_000), (0, AdmissionOutcome::Admitted));
        assert_eq!(c.offer(200_000), (1, AdmissionOutcome::Rejected));
        // A rejected session never joins the live load, even on complete.
        c.complete(1);
        assert_eq!(c.live_load_ppm(), 900_000);
        // Queue policy: a session that can never fit is force-admittable.
        let mut q = AdmissionController::new(AdmissionPolicy::Queue);
        let (k, v) = q.offer(2_000_000);
        assert_eq!(v, AdmissionOutcome::Queued, "over the bound on its own");
        assert!(!q.retry_one(k), "no amount of freeing makes it fit");
        q.admit_anyway(k);
        assert_eq!(q.outcome(k), AdmissionOutcome::Admitted);
        assert_eq!(q.live_load_ppm(), 2_000_000);
    }

    #[test]
    fn utilization_sum_never_overflows() {
        // A session infeasible *on its own* (u > 100%) is refused, and the
        // u128 accumulator keeps the sum exact even at u64::MAX inputs.
        let mut c = AdmissionController::new(AdmissionPolicy::Reject);
        assert_eq!(c.offer(u64::MAX), (0, AdmissionOutcome::Rejected));
        assert_eq!(c.offer(u64::MAX), (1, AdmissionOutcome::Rejected));
        assert_eq!(c.offer(200_000), (2, AdmissionOutcome::Admitted));
        let mut q = AdmissionController::new(AdmissionPolicy::Queue);
        for i in 0..3 {
            q.offer(u64::MAX);
            q.admit_anyway(i);
        }
        assert_eq!(q.live_load_ppm(), u64::MAX, "the reading saturates");
    }
}
