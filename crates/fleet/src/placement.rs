//! Placement policies: which fabric shard a submitted session goes to.
//!
//! Placement runs once per arrival, before admission — it picks the shard,
//! and that shard's admission controller then decides admit/queue/reject.
//! All policies are pure functions of the shard load snapshot (plus a
//! round-robin cursor), so placement is deterministic and replayable.

use std::fmt;
use std::str::FromStr;

use mrts_multitask::Criticality;

/// The load snapshot of one shard at placement time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShardLoad {
    /// Live (admitted, unfinished) sessions on the shard.
    pub(crate) live: usize,
    /// Sessions waiting in the shard's admission queue.
    pub(crate) queued: usize,
    /// Sum of admitted-but-unfinished sessions' projected utilization, in
    /// parts-per-million (the admission controller's live load).
    pub(crate) util_ppm: u64,
    /// The SLO-constrained share of `util_ppm` — what a criticality-aware
    /// placer avoids piling hard-deadline sessions onto.
    pub(crate) slo_util_ppm: u64,
}

/// Which shard a new session lands on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Placement {
    /// Cycle through fabrics in index order, ignoring load.
    RoundRobin,
    /// The fabric with the least projected utilization (ties: fewest
    /// live+queued sessions, then lowest index).
    #[default]
    LeastLoaded,
    /// SLO-constrained sessions go to the fabric with the least
    /// SLO-constrained load; best-effort sessions round-robin over the
    /// rest of the capacity.
    CriticalityAware,
}

impl Placement {
    /// Stable CLI label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Placement::RoundRobin => "rr",
            Placement::LeastLoaded => "least-loaded",
            Placement::CriticalityAware => "crit",
        }
    }

    /// Picks a shard for a session of class `crit` (with `constrained`
    /// true when its SLO actually carries a deadline) given per-shard
    /// loads. `rr` is the policy's round-robin cursor, advanced in place
    /// whenever a round-robin decision was taken.
    ///
    /// # Panics
    ///
    /// If `loads` is empty.
    #[must_use]
    pub(crate) fn place(
        self,
        loads: &[ShardLoad],
        crit: Criticality,
        constrained: bool,
        rr: &mut usize,
    ) -> usize {
        assert!(!loads.is_empty(), "placement needs at least one shard");
        let round_robin = |rr: &mut usize| {
            let pick = *rr % loads.len();
            *rr += 1;
            pick
        };
        let least = |key: fn(&ShardLoad) -> u64| {
            (0..loads.len())
                .min_by_key(|&i| (key(&loads[i]), loads[i].live + loads[i].queued, i))
                .unwrap_or(0)
        };
        match self {
            Placement::RoundRobin => round_robin(rr),
            Placement::LeastLoaded => least(|l| l.util_ppm),
            Placement::CriticalityAware => {
                if constrained && crit != Criticality::BestEffort {
                    least(|l| l.slo_util_ppm)
                } else {
                    round_robin(rr)
                }
            }
        }
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Placement {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rr" | "round-robin" => Ok(Placement::RoundRobin),
            "least-loaded" | "ll" => Ok(Placement::LeastLoaded),
            "crit" | "criticality" => Ok(Placement::CriticalityAware),
            other => Err(format!(
                "unknown placement '{other}' (rr|least-loaded|crit)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_and_least_loaded_breaks_ties_low() {
        let loads = vec![
            ShardLoad {
                live: 2,
                util_ppm: 400_000,
                ..ShardLoad::default()
            },
            ShardLoad {
                live: 1,
                util_ppm: 100_000,
                ..ShardLoad::default()
            },
            ShardLoad::default(),
        ];
        let mut rr = 0;
        let picks: Vec<usize> = (0..4)
            .map(|_| Placement::RoundRobin.place(&loads, Criticality::BestEffort, false, &mut rr))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0]);
        assert_eq!(
            Placement::LeastLoaded.place(&loads, Criticality::BestEffort, false, &mut rr),
            2
        );
        // Equal utilization: fewest sessions wins, then lowest index.
        let tied = vec![
            ShardLoad {
                live: 3,
                ..ShardLoad::default()
            },
            ShardLoad {
                live: 1,
                ..ShardLoad::default()
            },
        ];
        assert_eq!(
            Placement::LeastLoaded.place(&tied, Criticality::BestEffort, false, &mut rr),
            1
        );
    }

    #[test]
    fn criticality_aware_splits_classes() {
        let loads = vec![
            ShardLoad {
                slo_util_ppm: 600_000,
                ..ShardLoad::default()
            },
            ShardLoad {
                slo_util_ppm: 50_000,
                ..ShardLoad::default()
            },
        ];
        let mut rr = 0;
        // A hard constrained session avoids the SLO-loaded shard.
        assert_eq!(
            Placement::CriticalityAware.place(&loads, Criticality::Hard, true, &mut rr),
            1
        );
        assert_eq!(rr, 0, "deadline placement must not advance the rr cursor");
        // Best-effort sessions round-robin regardless.
        assert_eq!(
            Placement::CriticalityAware.place(&loads, Criticality::BestEffort, false, &mut rr),
            0
        );
        assert_eq!(
            Placement::CriticalityAware.place(&loads, Criticality::BestEffort, false, &mut rr),
            1
        );
    }

    #[test]
    fn labels_round_trip() {
        for p in [
            Placement::RoundRobin,
            Placement::LeastLoaded,
            Placement::CriticalityAware,
        ] {
            assert_eq!(p.label().parse::<Placement>().unwrap(), p);
        }
        assert!("bogus".parse::<Placement>().is_err());
    }
}
