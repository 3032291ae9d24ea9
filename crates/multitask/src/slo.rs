//! Service-level objectives for multi-tenant sessions.
//!
//! A tenant's [`Slo`] names what the runtime must *honor*, not what the
//! tenant merely wants: an optional per-block deadline period (block `k`
//! is due `arrival + period·(k+1)`), an optional whole-session deadline,
//! and a [`Criticality`] class that orders tenants at admission time.
//!
//! The degradation ladder (ROADMAP item 2) reuses the PR 1 recovery
//! ladder — full ISE → intermediate ISE → monoCG → RISC — as a QoS
//! mechanism: `ladder_cap` maps a ladder level to the fabric budget a
//! *victim* tenant is allowed to keep at that level, and the freed slots
//! are loaned to a tardy tenant until its laxity recovers.

use mrts_arch::{Cycles, Resources};
use std::fmt;
use std::str::FromStr;

/// How hard a tenant's deadlines are. Orders admission: `Hard` sessions
/// are admitted before `Soft`, which beat `BestEffort` (declaration
/// order carries the `Ord` derive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Criticality {
    /// No deadline guarantee sought; runs with whatever is left.
    #[default]
    BestEffort,
    /// Deadlines matter but an occasional miss is tolerable.
    Soft,
    /// Misses are failures; admitted first, degraded last.
    Hard,
}

impl Criticality {
    /// Short label used in stats and CLI output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Criticality::BestEffort => "be",
            Criticality::Soft => "soft",
            Criticality::Hard => "hard",
        }
    }
}

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A tenant's service-level objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Slo {
    /// Deadline for the whole session, relative to the tenant's arrival.
    /// `None` leaves the session open-ended.
    pub session_deadline: Option<Cycles>,
    /// Per-block period: block `k` (0-based) is due at
    /// `arrival + period·(k+1)`. `None` disables per-block deadlines.
    pub block_period: Option<Cycles>,
    /// Admission class.
    pub criticality: Criticality,
}

impl Slo {
    /// True when the SLO constrains nothing (no deadline of either kind).
    #[must_use]
    pub fn is_unconstrained(&self) -> bool {
        self.session_deadline.is_none() && self.block_period.is_none()
    }
}

/// Parses `crit[:period[:session]]` — e.g. `hard:800000`,
/// `soft:500000:40000000`, `be`. A `0` in either numeric slot means "no
/// deadline of that kind"; the bare class (or `-`/`none` handled by the
/// CLI) leaves both unset.
impl FromStr for Slo {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let crit = match parts.next().unwrap_or("") {
            "hard" => Criticality::Hard,
            "soft" => Criticality::Soft,
            "be" | "besteffort" => Criticality::BestEffort,
            other => {
                return Err(format!(
                    "unknown criticality '{other}' (hard|soft|be)[:period[:session]]"
                ))
            }
        };
        let parse_cycles = |part: Option<&str>, what: &str| -> Result<Option<Cycles>, String> {
            match part {
                None | Some("") | Some("0") => Ok(None),
                Some(v) => v
                    .parse::<u64>()
                    .map(|c| Some(Cycles::new(c)))
                    .map_err(|e| format!("bad {what} '{v}': {e}")),
            }
        };
        let block_period = parse_cycles(parts.next(), "block period")?;
        let session_deadline = parse_cycles(parts.next(), "session deadline")?;
        if let Some(extra) = parts.next() {
            return Err(format!("trailing SLO component '{extra}'"));
        }
        Ok(Slo {
            session_deadline,
            block_period,
            criticality: crit,
        })
    }
}

impl fmt::Display for Slo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}",
            self.criticality,
            self.block_period.map_or(0, Cycles::get),
            self.session_deadline.map_or(0, Cycles::get),
        )
    }
}

/// Deepest ladder level: the victim keeps no fabric at all (pure RISC).
pub(crate) const LADDER_BOTTOM: u8 = 3;

/// The fabric budget a tenant demoted to `level` keeps out of its
/// entitlement. Mirrors the PR 1 recovery ladder, coarsened to slot
/// counts:
///
/// | level | mode              | kept budget                  |
/// |-------|-------------------|------------------------------|
/// | 0     | full ISE          | the whole entitlement        |
/// | 1     | intermediate ISE  | half of each axis (round up) |
/// | 2     | monoCG            | one CG slot, no PRC          |
/// | 3     | RISC              | nothing                      |
#[must_use]
pub(crate) fn ladder_cap(level: u8, entitlement: Resources) -> Resources {
    match level {
        0 => entitlement,
        1 => Resources::new(entitlement.cg().div_ceil(2), entitlement.prc().div_ceil(2)),
        2 => Resources::new(entitlement.cg().min(1), 0),
        _ => Resources::NONE,
    }
}

/// Read-only view of the tenants' deadline state, handed to
/// [`Scheduler::pick`](crate::Scheduler::pick) each dispatch.
/// Indices align with the runnable mask; `None` marks a tenant without
/// that piece of information (no SLO, not admitted, or finished).
#[derive(Debug, Clone, Copy)]
pub struct SloSnapshot<'a> {
    /// Absolute deadline of each tenant's *next* block (or session end,
    /// whichever is sooner).
    pub deadlines: &'a [Option<Cycles>],
    /// Signed laxity of each tenant: final deadline − now − estimated
    /// remaining service. Negative means projected tardy.
    pub laxities: &'a [Option<i128>],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn criticality_orders_hard_above_soft_above_best_effort() {
        assert!(Criticality::Hard > Criticality::Soft);
        assert!(Criticality::Soft > Criticality::BestEffort);
    }

    #[test]
    fn slo_parses_all_forms() {
        let s: Slo = "hard:800000".parse().unwrap();
        assert_eq!(s.criticality, Criticality::Hard);
        assert_eq!(s.block_period, Some(Cycles::new(800_000)));
        assert_eq!(s.session_deadline, None);

        let s: Slo = "soft:500000:40000000".parse().unwrap();
        assert_eq!(s.criticality, Criticality::Soft);
        assert_eq!(s.block_period, Some(Cycles::new(500_000)));
        assert_eq!(s.session_deadline, Some(Cycles::new(40_000_000)));

        let s: Slo = "be".parse().unwrap();
        assert!(s.is_unconstrained());
        assert_eq!(s.criticality, Criticality::BestEffort);

        let s: Slo = "hard:0:123".parse().unwrap();
        assert_eq!(s.block_period, None);
        assert_eq!(s.session_deadline, Some(Cycles::new(123)));
    }

    #[test]
    fn slo_rejects_garbage() {
        assert!("firm:100".parse::<Slo>().is_err());
        assert!("hard:abc".parse::<Slo>().is_err());
        assert!("hard:1:2:3".parse::<Slo>().is_err());
    }

    #[test]
    fn slo_display_round_trips() {
        for text in ["hard:800000:0", "soft:0:42", "be:0:0"] {
            let s: Slo = text.parse().unwrap();
            assert_eq!(s.to_string().parse::<Slo>().unwrap(), s);
        }
    }

    #[test]
    fn ladder_cap_shrinks_monotonically() {
        let ent = Resources::new(4, 3);
        let caps: Vec<Resources> = (0..=LADDER_BOTTOM).map(|l| ladder_cap(l, ent)).collect();
        assert_eq!(caps[0], ent);
        assert_eq!(caps[1], Resources::new(2, 2));
        assert_eq!(caps[2], Resources::new(1, 0));
        assert_eq!(caps[3], Resources::NONE);
        for w in caps.windows(2) {
            assert!(w[1].fits_in(w[0]), "{:?} must fit in {:?}", w[1], w[0]);
        }
    }

    #[test]
    fn ladder_cap_handles_tiny_entitlements() {
        let ent = Resources::new(0, 1);
        assert_eq!(ladder_cap(1, ent), Resources::new(0, 1));
        assert_eq!(ladder_cap(2, ent), Resources::NONE);
    }
}
