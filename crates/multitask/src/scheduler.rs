//! Core-time schedulers: which runnable tenant gets the core next.
//!
//! Functional blocks are the scheduling quanta — a trigger instruction
//! hands the core to the run-time system and the block runs to completion,
//! so preemption happens only at block boundaries (the same granularity at
//! which the paper's mRTS itself takes decisions). Three disciplines are
//! provided: weighted-fair queuing for throughput-fair sharing, and
//! earliest-deadline-first and least-laxity-first for tenants with
//! service-level objectives. All three are pure integer machines: given
//! the same pick/charge sequence they reproduce the same schedule
//! bit-for-bit, which keeps multi-tenant runs deterministic across hosts
//! and thread counts.

use crate::slo::SloSnapshot;
use mrts_arch::Cycles;
use std::fmt;
use std::str::FromStr;

/// A core-time scheduling discipline.
///
/// The runner calls [`Scheduler::pick`] before every block activation and
/// [`Scheduler::charge`] after it with the cycles the block actually
/// consumed. Implementations must be deterministic: equal inputs must
/// produce equal picks (ties break towards the lowest tenant index).
///
/// Tenant indices are positions in the runner's *live* list: the
/// admitted-or-queued tenants in ascending admission order. A newcomer
/// joins at the end ([`Scheduler::register`]) and a departed tenant leaves
/// its position ([`Scheduler::retire`]), shifting the ones above it down
/// by one. Position order is admission order, so the lowest-index
/// tie-break picks exactly as if every departed tenant were still there,
/// never runnable.
pub trait Scheduler: fmt::Debug {
    /// Chooses the next tenant among the runnable ones (`runnable[i]` is
    /// `true` iff tenant `i` still has blocks to execute), given the
    /// tenants' current SLO state. Returns `None` iff no tenant is
    /// runnable. WFQ ignores `slo`; EDF and LLF are *defined* by it, and
    /// with an empty snapshot they rank every tenant equally and pick the
    /// lowest runnable index.
    fn pick(&mut self, runnable: &[bool], slo: &SloSnapshot<'_>) -> Option<usize>;

    /// Accounts `consumed` core cycles to `tenant` after it ran a block.
    /// Disciplines that rank by deadline state alone ignore it (this
    /// default).
    fn charge(&mut self, _tenant: usize, _consumed: Cycles) {}

    /// Registers a new tenant, appended after the highest index seen so
    /// far. `weight` is the newcomer's share and `runnable` the mask of
    /// the *existing* tenants at admission time, letting fairness
    /// disciplines start the newcomer at the virtual clock of the
    /// currently backlogged tenants — a tenant arriving mid-run neither
    /// monopolises the core catching up from zero nor pays for history it
    /// did not have. Stateless disciplines ignore both (this default).
    fn register(&mut self, _weight: u64, _runnable: &[bool]) {}

    /// Forgets the tenant at position `pos`, which has left for good; the
    /// tenants above it move down one position. Stateless disciplines hold
    /// nothing per tenant (this default).
    fn retire(&mut self, _pos: usize) {}

    /// How many tenants the discipline holds state for.
    #[cfg(test)]
    fn tracked(&self) -> usize {
        0
    }
}

/// Fixed-point scale of the weighted-fair virtual clock (integer
/// arithmetic keeps the schedule exactly reproducible).
const WFQ_SCALE: u128 = 1 << 20;

/// Weighted-fair queuing over virtual time: each tenant accumulates
/// `consumed × SCALE / weight` virtual cycles and the runnable tenant with
/// the smallest virtual clock runs next (ties break towards the lowest
/// index). Long-run core shares converge to the weight ratios, and no
/// runnable tenant starves: its virtual clock stands still while it
/// waits, so it overtakes any tenant that keeps running.
#[derive(Debug, Clone)]
pub struct WeightedFair {
    weights: Vec<u64>,
    vtime: Vec<u128>,
}

impl WeightedFair {
    /// Creates the scheduler; `weights[i]` is tenant `i`'s share (zero is
    /// treated as one).
    #[must_use]
    pub fn new(weights: &[u64]) -> Self {
        WeightedFair {
            vtime: vec![0; weights.len()],
            weights: weights.to_vec(),
        }
    }
}

impl Scheduler for WeightedFair {
    fn pick(&mut self, runnable: &[bool], _slo: &SloSnapshot<'_>) -> Option<usize> {
        (0..runnable.len())
            .filter(|&i| runnable[i])
            .min_by_key(|&i| (self.vtime.get(i).copied().unwrap_or(0), i))
    }

    fn charge(&mut self, tenant: usize, consumed: Cycles) {
        if let (Some(v), Some(&w)) = (self.vtime.get_mut(tenant), self.weights.get(tenant)) {
            *v += u128::from(consumed.get()) * WFQ_SCALE / u128::from(w.max(1));
        }
    }

    fn register(&mut self, weight: u64, runnable: &[bool]) {
        // Start at the virtual clock of the currently backlogged tenants
        // (the standard WFQ virtual start time), so a newcomer competes
        // fairly from now on instead of replaying the whole past.
        let vstart = (0..runnable.len().min(self.vtime.len()))
            .filter(|&i| runnable[i])
            .map(|i| self.vtime[i])
            .min()
            .unwrap_or(0);
        self.weights.push(weight);
        self.vtime.push(vstart);
    }

    fn retire(&mut self, pos: usize) {
        self.weights.remove(pos);
        self.vtime.remove(pos);
    }

    #[cfg(test)]
    fn tracked(&self) -> usize {
        self.vtime.len()
    }
}

/// Earliest-deadline-first: the runnable tenant whose next block deadline
/// is soonest runs next. Tenants without a deadline sort last (they run
/// in the slack), ties break towards the lowest index. Optimal for
/// feasible mixes on one core; under overload it starves the latest
/// deadlines — which is exactly the regime the admission controller and
/// the degradation ladder exist for.
#[derive(Debug, Clone, Default)]
pub struct EarliestDeadline;

impl Scheduler for EarliestDeadline {
    fn pick(&mut self, runnable: &[bool], slo: &SloSnapshot<'_>) -> Option<usize> {
        (0..runnable.len())
            .filter(|&i| runnable[i])
            .min_by_key(|&i| {
                let d = slo
                    .deadlines
                    .get(i)
                    .copied()
                    .flatten()
                    .map_or(u64::MAX, Cycles::get);
                (d, i)
            })
    }
}

/// Least-laxity-first: the runnable tenant with the smallest slack
/// (deadline − now − estimated remaining service) runs next. More
/// reactive than EDF when service estimates are meaningful — a tenant
/// with a far deadline but a mountain of remaining work preempts one
/// with a near deadline and almost nothing left. Tenants without laxity
/// information sort last; ties break towards the lowest index.
#[derive(Debug, Clone, Default)]
pub struct LeastLaxity;

impl Scheduler for LeastLaxity {
    fn pick(&mut self, runnable: &[bool], slo: &SloSnapshot<'_>) -> Option<usize> {
        (0..runnable.len())
            .filter(|&i| runnable[i])
            .min_by_key(|&i| {
                let l = slo.laxities.get(i).copied().flatten().unwrap_or(i128::MAX);
                (l, i)
            })
    }
}

/// Selector for the scheduling discipline a multi-tenant run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// [`WeightedFair`] over the tenant weights.
    WeightedFair,
    /// [`EarliestDeadline`] over the tenants' SLO deadlines.
    EarliestDeadline,
    /// [`LeastLaxity`] over the tenants' SLO laxities.
    LeastLaxity,
}

impl SchedulerKind {
    /// Builds the scheduler with no tenants yet; each one joins through
    /// [`Scheduler::register`].
    #[must_use]
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::WeightedFair => Box::new(WeightedFair::new(&[])),
            SchedulerKind::EarliestDeadline => Box::new(EarliestDeadline),
            SchedulerKind::LeastLaxity => Box::new(LeastLaxity),
        }
    }
}

impl FromStr for SchedulerKind {
    type Err = String;

    /// Parses `wfq`, `edf` or `llf`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "wfq" => Ok(SchedulerKind::WeightedFair),
            "edf" => Ok(SchedulerKind::EarliestDeadline),
            "llf" => Ok(SchedulerKind::LeastLaxity),
            other => Err(format!("unknown scheduler '{other}' (wfq|edf|llf)")),
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerKind::WeightedFair => write!(f, "wfq"),
            SchedulerKind::EarliestDeadline => write!(f, "edf"),
            SchedulerKind::LeastLaxity => write!(f, "llf"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No deadline or laxity information for any tenant.
    const BLIND: SloSnapshot<'static> = SloSnapshot {
        deadlines: &[],
        laxities: &[],
    };

    #[test]
    fn weighted_fair_converges_to_weight_ratio() {
        let mut w = WeightedFair::new(&[1, 3]);
        let runnable = vec![true, true];
        let mut served = [0u64, 0u64];
        for _ in 0..400 {
            let t = w.pick(&runnable, &BLIND).unwrap();
            served[t] += 100;
            w.charge(t, Cycles::new(100));
        }
        let share = served[1] as f64 / (served[0] + served[1]) as f64;
        assert!(
            (share - 0.75).abs() < 0.02,
            "weight-3 tenant got {share} of the core"
        );
    }

    #[test]
    fn weighted_fair_never_starves_a_runnable_tenant() {
        let mut w = WeightedFair::new(&[1, 1000]);
        let runnable = vec![true, true];
        let mut gap = 0u32;
        let mut worst = 0u32;
        for _ in 0..2_000 {
            let t = w.pick(&runnable, &BLIND).unwrap();
            w.charge(t, Cycles::new(50));
            if t == 0 {
                worst = worst.max(gap);
                gap = 0;
            } else {
                gap += 1;
            }
        }
        assert!(worst < 1_500, "light tenant waited {worst} picks");
    }

    #[test]
    fn register_appends_without_catchup_monopoly() {
        let mut w = WeightedFair::new(&[1]);
        w.charge(0, Cycles::new(1_000));
        w.register(1, &[true]);
        // The newcomer starts at the incumbent's virtual clock, so the
        // tie breaks to the incumbent instead of a zero-vtime monopoly.
        assert_eq!(w.pick(&[true, true], &BLIND), Some(0));
        w.charge(0, Cycles::new(10));
        assert_eq!(w.pick(&[true, true], &BLIND), Some(1));
        // Stateless disciplines ignore registration.
        let mut edf = EarliestDeadline;
        edf.register(1, &[true]);
        assert_eq!(edf.pick(&[true, true], &BLIND), Some(0));
    }

    /// Retiring a tenant must pick exactly as keeping it forever
    /// non-runnable would: a "ghost" scheduler that never retires anyone
    /// (indexed by admission id) and a live one that retires departed
    /// tenants (indexed by live position) see the same random
    /// admit/pick/charge/depart sequence and must agree on every pick.
    #[test]
    fn retire_picks_exactly_like_a_never_runnable_ghost() {
        let kinds = [
            SchedulerKind::WeightedFair,
            SchedulerKind::EarliestDeadline,
            SchedulerKind::LeastLaxity,
        ];
        for kind in kinds {
            for seed in 0..20u64 {
                let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                let mut draw = |n: u64| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng % n
                };
                let mut ghost = kind.build();
                let mut live = kind.build();
                // Per admission id: still here, and runnable right now.
                let mut here: Vec<bool> = Vec::new();
                let mut runnable: Vec<bool> = Vec::new();
                for _ in 0..400 {
                    let live_ids: Vec<usize> = (0..here.len()).filter(|&i| here[i]).collect();
                    match draw(10) {
                        0 | 1 if live_ids.len() < 6 => {
                            let weight = 1 + draw(5);
                            ghost.register(weight, &runnable);
                            let mask: Vec<bool> = live_ids.iter().map(|&i| runnable[i]).collect();
                            live.register(weight, &mask);
                            here.push(true);
                            runnable.push(draw(4) != 0);
                        }
                        2 if !live_ids.is_empty() => {
                            let id = live_ids[draw(live_ids.len() as u64) as usize];
                            let pos = live_ids.iter().position(|&i| i == id).unwrap();
                            here[id] = false;
                            runnable[id] = false;
                            live.retire(pos);
                        }
                        3 if !live_ids.is_empty() => {
                            let id = live_ids[draw(live_ids.len() as u64) as usize];
                            runnable[id] = !runnable[id];
                        }
                        _ => {
                            let mask: Vec<bool> = live_ids.iter().map(|&i| runnable[i]).collect();
                            let want = ghost.pick(&runnable, &BLIND);
                            let got = live.pick(&mask, &BLIND).map(|p| live_ids[p]);
                            assert_eq!(got, want, "{kind} seed {seed}: picks diverged");
                            if let Some(id) = want {
                                let consumed = Cycles::new(10 + draw(100));
                                ghost.charge(id, consumed);
                                let pos = live_ids.iter().position(|&i| i == id).unwrap();
                                live.charge(pos, consumed);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kind_parses_and_builds() {
        for name in ["wfq", "edf", "llf"] {
            let kind: SchedulerKind = name.parse().unwrap();
            assert_eq!(kind.to_string(), name);
            // Every discipline picks the only runnable tenant.
            assert_eq!(kind.build().pick(&[false, true], &BLIND), Some(1));
        }
        for retired in ["rr", "prio", "lottery"] {
            assert!(retired.parse::<SchedulerKind>().is_err(), "{retired}");
        }
    }

    #[test]
    fn edf_picks_earliest_deadline_and_parks_unconstrained_last() {
        let mut edf = EarliestDeadline;
        let deadlines = [
            Some(Cycles::new(900)),
            Some(Cycles::new(400)),
            None,
            Some(Cycles::new(400)),
        ];
        let snap = SloSnapshot {
            deadlines: &deadlines,
            laxities: &[None; 4],
        };
        // Soonest deadline wins; the 400-cycle tie breaks to index 1.
        assert_eq!(edf.pick(&[true; 4], &snap), Some(1));
        // With the urgent pair done, 900 beats "no deadline".
        assert_eq!(edf.pick(&[true, false, true, false], &snap), Some(0));
        // Only the unconstrained tenant left: it still runs.
        assert_eq!(edf.pick(&[false, false, true, false], &snap), Some(2));
        assert_eq!(edf.pick(&[false; 4], &snap), None);
        // An empty snapshot ranks every tenant equally: lowest index.
        assert_eq!(edf.pick(&[false, true, true, false], &BLIND), Some(1));
    }

    #[test]
    fn llf_picks_smallest_laxity_including_negative() {
        let mut llf = LeastLaxity;
        let laxities = [Some(500i128), Some(-200), None, Some(-200)];
        let snap = SloSnapshot {
            deadlines: &[None; 4],
            laxities: &laxities,
        };
        // Most negative laxity is most urgent; tie breaks to index 1.
        assert_eq!(llf.pick(&[true; 4], &snap), Some(1));
        assert_eq!(llf.pick(&[true, false, true, false], &snap), Some(0));
        assert_eq!(llf.pick(&[false, false, true, false], &snap), Some(2));
        assert_eq!(llf.pick(&[false, true, true, false], &BLIND), Some(1));
    }

    /// With at most one tenant carrying a deadline, EDF and LLF cannot
    /// disagree: the runner fills a tenant's deadline and laxity from the
    /// same SLO (both `Some` or both `None`), so either that tenant is
    /// runnable and both disciplines pick it ahead of the deadline-free
    /// rest, or it is not and both fall back to the lowest runnable index.
    /// (The one exception is a deadline saturated at `u64::MAX`, which
    /// EDF ranks level with "no deadline".) This is why `fig_overload`'s single-deadline mix reads the same
    /// for `llf+ladder` as for `edf+ladder`.
    #[test]
    fn edf_and_llf_agree_with_at_most_one_deadline() {
        const N: usize = 4;
        for carrier in (0..N).map(Some).chain([None]) {
            for (deadline, laxity) in [
                (0, -5_000),
                (1, 0),
                (700, 300),
                (u64::MAX - 1, i128::MAX - 1),
            ] {
                let mut deadlines = [None; N];
                let mut laxities = [None; N];
                if let Some(c) = carrier {
                    deadlines[c] = Some(Cycles::new(deadline));
                    laxities[c] = Some(laxity);
                }
                let snap = SloSnapshot {
                    deadlines: &deadlines,
                    laxities: &laxities,
                };
                for mask in 0u32..1 << N {
                    let runnable: Vec<bool> = (0..N).map(|i| mask & (1 << i) != 0).collect();
                    assert_eq!(
                        EarliestDeadline.pick(&runnable, &snap),
                        LeastLaxity.pick(&runnable, &snap),
                        "carrier {carrier:?}, mask {mask:04b}, deadline {deadline}"
                    );
                }
            }
        }
    }

    #[test]
    fn deadline_blind_schedulers_ignore_the_snapshot() {
        let deadlines = [Some(Cycles::new(1)), Some(Cycles::new(2))];
        let snap = SloSnapshot {
            deadlines: &deadlines,
            laxities: &[None; 2],
        };
        let mut wfq = WeightedFair::new(&[1, 1]);
        wfq.charge(0, Cycles::new(1_000));
        // WFQ's virtual time, not the deadline, decides.
        assert_eq!(wfq.pick(&[true, true], &snap), Some(1));
    }
}
