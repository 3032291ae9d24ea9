//! Run statistics: what the evaluation figures are made of.

use mrts_arch::Cycles;
use mrts_ise::{BlockId, KernelId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// How one (batch of) kernel execution(s) was carried out, as classified by
/// the simulator from ground-truth fabric residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ExecClass {
    /// Core's basic instruction set only.
    RiscMode,
    /// The monoCG-Extension.
    MonoCg,
    /// An ISE with only part of its units resident (an intermediate ISE).
    IntermediateIse,
    /// A fully reconfigured ISE.
    FullIse,
}

impl ExecClass {
    /// All classes, in reporting order.
    pub const ALL: [ExecClass; 4] = [
        ExecClass::RiscMode,
        ExecClass::MonoCg,
        ExecClass::IntermediateIse,
        ExecClass::FullIse,
    ];

    /// Dense index of the class (its position in [`ExecClass::ALL`]),
    /// letting hot paths accumulate per-class counters in a fixed array
    /// instead of a map.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            ExecClass::RiscMode => 0,
            ExecClass::MonoCg => 1,
            ExecClass::IntermediateIse => 2,
            ExecClass::FullIse => 3,
        }
    }
}

impl fmt::Display for ExecClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecClass::RiscMode => write!(f, "RISC"),
            ExecClass::MonoCg => write!(f, "monoCG"),
            ExecClass::IntermediateIse => write!(f, "intermediate"),
            ExecClass::FullIse => write!(f, "full-ISE"),
        }
    }
}

/// Accumulated behaviour of one kernel over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Total executions.
    pub executions: u64,
    /// Total cycles spent executing the kernel.
    pub cycles: Cycles,
    /// Executions per execution class.
    pub by_class: BTreeMap<ExecClass, u64>,
}

impl KernelStats {
    /// Records `n` executions of `latency` cycles each in class `class`.
    pub fn record(&mut self, class: ExecClass, n: u64, latency: Cycles) {
        self.executions += n;
        self.cycles += latency * n;
        *self.by_class.entry(class).or_insert(0) += n;
    }

    /// Folds a whole SoA batch of `(class, count, latency)` rows in one
    /// go and returns the total cycles the batch contributed. Since
    /// [`KernelStats::record`] is purely additive, the fold is
    /// order-insensitive and byte-equivalent to calling `record` per row —
    /// but it touches `executions`/`cycles` once and each class's map
    /// entry at most once, instead of per row.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the three slices have equal length; mismatched
    /// rows beyond the shortest slice are otherwise ignored.
    pub(crate) fn record_batch(
        &mut self,
        classes: &[ExecClass],
        counts: &[u64],
        latencies: &[Cycles],
    ) -> Cycles {
        debug_assert!(classes.len() == counts.len() && counts.len() == latencies.len());
        let mut execs = [0u64; ExecClass::ALL.len()];
        let mut cycles = Cycles::ZERO;
        for ((&class, &n), &latency) in classes.iter().zip(counts).zip(latencies) {
            execs[class.index()] += n;
            cycles += latency * n;
        }
        self.executions += execs.iter().sum::<u64>();
        self.cycles += cycles;
        for (class, &n) in ExecClass::ALL.iter().zip(&execs) {
            if n > 0 {
                *self.by_class.entry(*class).or_insert(0) += n;
            }
        }
        cycles
    }
}

/// Timing of one functional-block activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockStats {
    /// Which block.
    pub block: BlockId,
    /// Input frame index.
    pub frame: u32,
    /// Cycles spent in kernel executions within this activation.
    pub busy_cycles: Cycles,
    /// Wall-clock span of the activation (trigger to last kernel finish).
    pub makespan: Cycles,
    /// Run-time-system decision cost charged to this activation.
    pub selection_overhead: Cycles,
}

/// Complete statistics of one simulated run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Name of the policy that produced the run.
    pub policy: String,
    /// Per-kernel accumulators.
    pub kernels: BTreeMap<KernelId, KernelStats>,
    /// Per-activation timings, in trace order.
    pub blocks: Vec<BlockStats>,
    /// Units the policy asked to load but the machine had to reject
    /// (insufficient free fabric) — should stay 0 for well-formed policies.
    pub rejected_loads: u64,
    /// Load attempts that hit an injected fault (CRC or permanent).
    #[serde(default)]
    pub failed_loads: u64,
    /// Retry attempts issued after faulted loads (successful or not).
    #[serde(default)]
    pub retried_loads: u64,
    /// Containers permanently lost to injected faults over the run.
    #[serde(default)]
    pub blacklisted_containers: u64,
    /// Accelerated executions whose result was discarded after a transient
    /// fault and re-run in RISC mode.
    #[serde(default)]
    pub degraded_executions: u64,
    /// Configuration-port cycles wasted streaming faulted loads plus RISC
    /// re-execution cycles after transient faults — the total cost of
    /// recovering from injected faults.
    #[serde(default)]
    pub recovery_cycles: Cycles,
}

impl RunStats {
    /// Total kernel-execution cycles over the whole run — the paper's
    /// "execution time" metric of Fig. 8.
    #[must_use]
    pub fn total_busy(&self) -> Cycles {
        self.kernels.values().map(|k| k.cycles).sum()
    }

    /// Total run-time-system overhead.
    #[must_use]
    pub fn total_overhead(&self) -> Cycles {
        self.blocks.iter().map(|b| b.selection_overhead).sum()
    }

    /// Execution time including the run-time system's own cost.
    #[must_use]
    pub fn total_execution_time(&self) -> Cycles {
        self.total_busy() + self.total_overhead()
    }

    /// Sum of block makespans (wall-clock view).
    #[must_use]
    pub fn total_makespan(&self) -> Cycles {
        self.blocks.iter().map(|b| b.makespan).sum()
    }

    /// Total executions over all kernels.
    #[must_use]
    pub fn total_executions(&self) -> u64 {
        self.kernels.values().map(|k| k.executions).sum()
    }

    /// Executions per class over all kernels.
    #[must_use]
    pub fn class_histogram(&self) -> BTreeMap<ExecClass, u64> {
        let mut h = BTreeMap::new();
        for k in self.kernels.values() {
            for (c, n) in &k.by_class {
                *h.entry(*c).or_insert(0) += n;
            }
        }
        h
    }

    /// Speedup of this run relative to `baseline` (by execution time
    /// including overhead). Returns 0.0 if this run took no time.
    #[must_use]
    pub fn speedup_vs(&self, baseline: &RunStats) -> f64 {
        let own = self.total_execution_time().get();
        if own == 0 {
            return 0.0;
        }
        baseline.total_execution_time().get() as f64 / own as f64
    }

    /// Overhead as a fraction of total execution time (the paper's 1.9%
    /// claim in Section 5.4).
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.total_execution_time().get();
        if total == 0 {
            return 0.0;
        }
        self.total_overhead().get() as f64 / total as f64
    }
}

/// Statistics of one tenant (one application) in a multi-tenant run.
///
/// Wraps the tenant's ordinary [`RunStats`] with the scheduling-level
/// quantities that only exist when several applications time-share one
/// machine: turnaround, waiting time, switch/repartition costs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant index (stable across runs; also the scheduler tie-break key).
    pub tenant: usize,
    /// Application name.
    pub app: String,
    /// Scheduling weight (share under the weighted-fair policy).
    pub weight: u64,
    /// The tenant's own simulation statistics.
    pub run: RunStats,
    /// Global time at which the tenant's last block finished (turnaround;
    /// every tenant arrives at time zero).
    pub turnaround: Cycles,
    /// Cycles the tenant spent runnable but descheduled.
    pub waiting_cycles: Cycles,
    /// Times the core switched *to* this tenant from a different one.
    pub context_switches: u64,
    /// Core cycles charged to those switches.
    pub switch_cycles: Cycles,
    /// Artefacts evicted from the tenant's partition by arbiter shrinks.
    pub repartition_evictions: u64,
    /// Execution time of the same trace on the bare RISC core (analytic;
    /// the numerator of the tenant's speedup).
    pub risc_baseline: Cycles,
    /// Admission verdict: `""` (no admission control), `"admitted"`,
    /// `"queued"` (admitted late) or `"rejected"` (never ran).
    #[serde(default)]
    pub admission: String,
    /// SLO deadlines the tenant was subject to (per-block plus session).
    #[serde(default)]
    pub slo_deadlines: u64,
    /// How many of those deadlines were missed.
    #[serde(default)]
    pub deadline_misses: u64,
    /// Tardiness (cycles late) of each missed deadline, in occurrence
    /// order. Met deadlines contribute nothing here (they count as 0 in
    /// the percentile helpers).
    #[serde(default)]
    pub tardiness: Vec<u64>,
    /// Times the degradation ladder demoted this tenant one level
    /// (shedding fabric to a tardy tenant).
    #[serde(default)]
    pub degrade_steps: u64,
    /// Times the ladder promoted this tenant back one level.
    #[serde(default)]
    pub promote_steps: u64,
}

impl TenantStats {
    /// The tenant's speedup: RISC-only execution time over turnaround.
    /// Returns 0.0 before the tenant has finished.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.turnaround == Cycles::ZERO {
            return 0.0;
        }
        self.risc_baseline.get() as f64 / self.turnaround.get() as f64
    }

    /// Fraction of this tenant's SLO deadlines that were missed
    /// (0.0 when it had none).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.slo_deadlines == 0 {
            return 0.0;
        }
        self.deadline_misses as f64 / self.slo_deadlines as f64
    }

    /// Worst single tardiness (0 when every deadline was met).
    #[must_use]
    pub fn max_tardiness(&self) -> u64 {
        self.tardiness.iter().copied().max().unwrap_or(0)
    }
}

/// Exact nearest-rank `q_num/q_den` quantile over an integer sample made
/// of `nonzero` (unsorted, copied and sorted internally) plus `zeros`
/// implicit zero-valued samples. The rank is `ceil(q·n)` clamped into
/// `1..=n`; zeros sort before every nonzero sample. Returns 0 when the
/// combined sample is empty or `q_den` is 0.
///
/// This is the one percentile implementation shared by
/// [`MultitaskStats::tardiness_percentile`] (met deadlines are the
/// implicit zeros) and [`FleetStats`]'s session-latency percentiles
/// (`zeros = 0`).
#[must_use]
pub fn nearest_rank_percentile(nonzero: &[u64], zeros: u64, q_num: u64, q_den: u64) -> u64 {
    let n = zeros + nonzero.len() as u64;
    if n == 0 || q_den == 0 {
        return 0;
    }
    let mut sorted = nonzero.to_vec();
    sorted.sort_unstable();
    let rank = (q_num * n).div_ceil(q_den).clamp(1, n);
    if rank <= zeros {
        0
    } else {
        sorted[(rank - zeros - 1) as usize]
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over a set of per-tenant
/// allocations. 1.0 = perfectly fair; `1/n` = one tenant gets everything.
/// Empty or all-zero inputs return 1.0 (nothing is being shared unfairly).
#[must_use]
pub(crate) fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if s2 == 0.0 {
        return 1.0;
    }
    (s * s) / (xs.len() as f64 * s2)
}

/// Aggregate statistics of one multi-tenant run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MultitaskStats {
    /// Label of the scheduler + arbiter + per-tenant policy combination.
    pub policy: String,
    /// Per-tenant statistics, in tenant order.
    pub tenants: Vec<TenantStats>,
    /// Global wall-clock span (all tenants arrive at 0; this is when the
    /// last one finishes, switch costs included).
    pub makespan: Cycles,
    /// Total context switches charged.
    pub context_switches: u64,
    /// Total core cycles spent switching tenants.
    pub switch_cycles: Cycles,
    /// Times the fabric arbiter changed the partition.
    pub repartitions: u64,
    /// Core cycles charged for those re-partitions.
    pub repartition_cycles: Cycles,
}

impl MultitaskStats {
    /// Aggregate speedup: total RISC-only work of all tenants that ran
    /// divided by the global makespan — how much faster the shared machine
    /// finishes the mix than a bare RISC core running the apps
    /// back-to-back. Tenants admission rejected never run, so their work
    /// is not in the makespan and not in the sum either.
    #[must_use]
    pub fn aggregate_speedup(&self) -> f64 {
        if self.makespan == Cycles::ZERO {
            return 0.0;
        }
        let total_risc: u64 = self
            .tenants
            .iter()
            .filter(|t| t.admission != "rejected")
            .map(|t| t.risc_baseline.get())
            .sum();
        total_risc as f64 / self.makespan.get() as f64
    }

    /// Jain fairness index over the per-tenant speedups.
    #[must_use]
    pub fn jain_fairness(&self) -> f64 {
        let xs: Vec<f64> = self.tenants.iter().map(TenantStats::speedup).collect();
        jain_index(&xs)
    }

    /// Kernel executions completed per million cycles of makespan.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.makespan == Cycles::ZERO {
            return 0.0;
        }
        let execs: u64 = self.tenants.iter().map(|t| t.run.total_executions()).sum();
        execs as f64 / self.makespan.as_mcycles()
    }

    /// Total SLO deadlines across all tenants.
    #[must_use]
    pub fn slo_deadlines(&self) -> u64 {
        self.tenants.iter().map(|t| t.slo_deadlines).sum()
    }

    /// Total missed deadlines across all tenants.
    #[must_use]
    pub fn deadline_misses(&self) -> u64 {
        self.tenants.iter().map(|t| t.deadline_misses).sum()
    }

    /// Run-wide deadline-miss rate (0.0 when no tenant had an SLO).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.slo_deadlines();
        if total == 0 {
            return 0.0;
        }
        self.deadline_misses() as f64 / total as f64
    }

    /// Total ladder demotions across all tenants.
    #[must_use]
    pub fn degrade_steps(&self) -> u64 {
        self.tenants.iter().map(|t| t.degrade_steps).sum()
    }

    /// Total ladder promotions across all tenants.
    #[must_use]
    pub fn promote_steps(&self) -> u64 {
        self.tenants.iter().map(|t| t.promote_steps).sum()
    }

    /// The `q_num/q_den` tardiness quantile over *all* SLO deadlines in
    /// the run — met deadlines count as 0 cycles late, so e.g.
    /// `tardiness_percentile(95, 100)` is the p95 lateness a deadline
    /// experienced. Integer and exact: sorts the merged sample and takes
    /// element `ceil(q·n) − 1`. Returns 0 when no tenant had an SLO.
    #[must_use]
    pub fn tardiness_percentile(&self, q_num: u64, q_den: u64) -> u64 {
        let n = self.slo_deadlines();
        let late: Vec<u64> = self
            .tenants
            .iter()
            .flat_map(|t| t.tardiness.iter().copied())
            .collect();
        // The first n - late.len() samples are implicit zeros (met deadlines).
        nearest_rank_percentile(&late, n.saturating_sub(late.len() as u64), q_num, q_den)
    }
}

/// Lifecycle record of one fleet session (one tenant arrival in an
/// open-loop run). Rejected sessions keep `admitted_at == departed_at ==
/// submitted` so their wait/latency read as zero; filter on
/// [`SessionStats::rejected`] before aggregating.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Global session id (arrival order).
    pub id: u32,
    /// Application name.
    pub app: String,
    /// Fabric the session ran on (`None` when rejected).
    pub fabric: Option<usize>,
    /// Scheduling weight.
    pub weight: u64,
    /// Global time the session was submitted (arrival).
    pub submitted: Cycles,
    /// Global time the session started running on its fabric.
    pub admitted_at: Cycles,
    /// Global time the session's last block finished.
    pub departed_at: Cycles,
    /// True when admission control or a full wait queue turned it away.
    pub rejected: bool,
    /// True when the session waited in the queue before admission.
    pub queued: bool,
}

impl SessionStats {
    /// Time spent between submission and first dispatch opportunity.
    #[must_use]
    pub fn queue_wait(&self) -> Cycles {
        self.admitted_at - self.submitted
    }

    /// Submission-to-departure latency (the fleet's per-session metric).
    #[must_use]
    pub fn latency(&self) -> Cycles {
        self.departed_at - self.submitted
    }
}

/// Per-fabric aggregates of a fleet run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FabricStats {
    /// Fabric index.
    pub fabric: usize,
    /// Sessions that ran (to completion) on this fabric.
    pub sessions: u64,
    /// Cycles this fabric's core spent serving sessions.
    pub busy_cycles: Cycles,
    /// The fabric's local clock when its last session departed.
    pub last_active: Cycles,
}

impl FabricStats {
    /// Busy fraction of the fabric over `makespan`, in parts-per-million.
    #[must_use]
    pub fn util_ppm(&self, makespan: Cycles) -> u64 {
        if makespan == Cycles::ZERO {
            return 0;
        }
        u64::try_from(u128::from(self.busy_cycles.get()) * 1_000_000 / u128::from(makespan.get()))
            .unwrap_or(u64::MAX)
    }
}

/// Aggregate statistics of one open-loop fleet run: offered vs. accepted
/// load, per-session latencies, and fabric utilization over time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Label of the placement + arbiter + admission combination.
    pub policy: String,
    /// Sessions submitted (offered load).
    pub offered: u64,
    /// Sessions admitted and run to completion.
    pub accepted: u64,
    /// Sessions turned away (admission control or full queue).
    pub rejected: u64,
    /// Global wall-clock span (max over fabric clocks at drain).
    pub makespan: Cycles,
    /// Per-session lifecycle records, in arrival order.
    pub sessions: Vec<SessionStats>,
    /// Per-fabric aggregates, in fabric order.
    pub fabrics: Vec<FabricStats>,
    /// Width of each fabric-utilization window.
    pub window_cycles: Cycles,
    /// Busy cycles per fabric per window (`busy_windows[fabric][window]`);
    /// all fabrics carry the same window count.
    pub busy_windows: Vec<Vec<u64>>,
}

impl FleetStats {
    /// Fraction of offered sessions that were accepted (1.0 when nothing
    /// was offered).
    #[must_use]
    fn acceptance_rate(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.accepted as f64 / self.offered as f64
    }

    /// Fraction of offered sessions that were rejected.
    #[must_use]
    pub fn rejection_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.rejected as f64 / self.offered as f64
    }

    /// Fraction of offered sessions that had to wait in the queue.
    #[must_use]
    pub fn queued_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        let queued = self.sessions.iter().filter(|s| s.queued).count();
        queued as f64 / self.offered as f64
    }

    /// Completed sessions per Mcycle of makespan (accepted throughput).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.makespan == Cycles::ZERO {
            return 0.0;
        }
        self.accepted as f64 / self.makespan.as_mcycles()
    }

    /// Exact nearest-rank session-latency percentile over completed
    /// sessions (e.g. `latency_percentile(95, 100)` = p95), via the same
    /// helper as [`MultitaskStats::tardiness_percentile`].
    #[must_use]
    pub fn latency_percentile(&self, q_num: u64, q_den: u64) -> u64 {
        let lat: Vec<u64> = self
            .sessions
            .iter()
            .filter(|s| !s.rejected)
            .map(|s| s.latency().get())
            .collect();
        nearest_rank_percentile(&lat, 0, q_num, q_den)
    }

    /// Mean queue wait over completed sessions, in cycles.
    #[must_use]
    fn mean_queue_wait(&self) -> f64 {
        let (sum, n) = self
            .sessions
            .iter()
            .filter(|s| !s.rejected)
            .fold((0u128, 0u64), |(s, n), x| {
                (s + u128::from(x.queue_wait().get()), n + 1)
            });
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Jain fairness of fabric busy time within each utilization window —
    /// how evenly placement spread load across fabrics over the run.
    #[must_use]
    pub fn window_jain(&self) -> Vec<f64> {
        let windows = self.busy_windows.first().map_or(0, Vec::len);
        (0..windows)
            .map(|w| {
                let xs: Vec<f64> = self
                    .busy_windows
                    .iter()
                    .map(|f| f.get(w).copied().unwrap_or(0) as f64)
                    .collect();
                jain_index(&xs)
            })
            .collect()
    }

    /// Mean of [`FleetStats::window_jain`] (1.0 when there are no windows).
    #[must_use]
    pub fn mean_window_jain(&self) -> f64 {
        let j = self.window_jain();
        if j.is_empty() {
            return 1.0;
        }
        j.iter().sum::<f64>() / j.len() as f64
    }
}

impl fmt::Display for FleetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} offered, {} accepted ({:.1}%), {} rejected, \
             makespan {:.3} Mcycles, {:.4} sessions/Mcycle",
            self.policy,
            self.offered,
            self.accepted,
            self.acceptance_rate() * 100.0,
            self.rejected,
            self.makespan.as_mcycles(),
            self.throughput()
        )?;
        writeln!(
            f,
            "  latency p50/p95/p99 {:.3}/{:.3}/{:.3} Mcycles, \
             mean queue wait {:.3} Mcycles, window Jain {:.3}",
            Cycles::new(self.latency_percentile(50, 100)).as_mcycles(),
            Cycles::new(self.latency_percentile(95, 100)).as_mcycles(),
            Cycles::new(self.latency_percentile(99, 100)).as_mcycles(),
            self.mean_queue_wait() / 1e6,
            self.mean_window_jain()
        )?;
        for fb in &self.fabrics {
            writeln!(
                f,
                "  fabric[{}]: {} sessions, busy {:.3} Mcycles ({:.1}% util)",
                fb.fabric,
                fb.sessions,
                fb.busy_cycles.as_mcycles(),
                fb.util_ppm(self.makespan) as f64 / 10_000.0
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for MultitaskStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} tenants, makespan {:.3} Mcycles, agg speedup {:.3}x, \
             Jain {:.3}, {} switches ({:.3} Mcycles), {} repartitions",
            self.policy,
            self.tenants.len(),
            self.makespan.as_mcycles(),
            self.aggregate_speedup(),
            self.jain_fairness(),
            self.context_switches,
            self.switch_cycles.as_mcycles(),
            self.repartitions
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "  [{}] {} (w={}): speedup {:.3}x, turnaround {:.3} Mcycles, \
                 waited {:.3} Mcycles",
                t.tenant,
                t.app,
                t.weight,
                t.speedup(),
                t.turnaround.as_mcycles(),
                t.waiting_cycles.as_mcycles()
            )?;
            if t.slo_deadlines > 0 || !t.admission.is_empty() {
                writeln!(
                    f,
                    "      slo: {}{} deadlines, {} missed ({:.1}%), \
                     max tardiness {:.3} Mcycles, ladder {}v/{}^",
                    if t.admission.is_empty() {
                        String::new()
                    } else {
                        format!("{}, ", t.admission)
                    },
                    t.slo_deadlines,
                    t.deadline_misses,
                    t.miss_rate() * 100.0,
                    Cycles::new(t.max_tardiness()).as_mcycles(),
                    t.degrade_steps,
                    t.promote_steps
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_stats_accumulate() {
        let mut k = KernelStats::default();
        k.record(ExecClass::RiscMode, 10, Cycles::new(100));
        k.record(ExecClass::FullIse, 5, Cycles::new(20));
        assert_eq!(k.executions, 15);
        assert_eq!(k.cycles, Cycles::new(1_100));
        assert_eq!(k.by_class.get(&ExecClass::RiscMode), Some(&10));
        assert_eq!(k.by_class.get(&ExecClass::MonoCg), None);
    }

    #[test]
    fn run_totals_and_speedup() {
        let mut fast = RunStats {
            policy: "fast".into(),
            ..RunStats::default()
        };
        fast.kernels.entry(KernelId(0)).or_default().record(
            ExecClass::FullIse,
            10,
            Cycles::new(10),
        );
        let mut slow = RunStats {
            policy: "slow".into(),
            ..RunStats::default()
        };
        slow.kernels.entry(KernelId(0)).or_default().record(
            ExecClass::RiscMode,
            10,
            Cycles::new(30),
        );
        assert_eq!(fast.total_busy(), Cycles::new(100));
        assert!((fast.speedup_vs(&slow) - 3.0).abs() < 1e-12);
        assert_eq!(fast.total_executions(), 10);
    }

    #[test]
    fn overhead_fraction() {
        let mut s = RunStats::default();
        s.kernels
            .entry(KernelId(0))
            .or_default()
            .record(ExecClass::RiscMode, 1, Cycles::new(980));
        s.blocks.push(BlockStats {
            block: BlockId(0),
            frame: 0,
            busy_cycles: Cycles::new(980),
            makespan: Cycles::new(1_000),
            selection_overhead: Cycles::new(20),
        });
        assert!((s.overhead_fraction() - 0.02).abs() < 1e-12);
        assert_eq!(s.total_execution_time(), Cycles::new(1_000));
    }

    #[test]
    fn empty_stats_are_harmless() {
        let s = RunStats::default();
        assert_eq!(s.total_busy(), Cycles::ZERO);
        assert_eq!(s.speedup_vs(&s), 0.0);
        assert_eq!(s.overhead_fraction(), 0.0);
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        // Equal shares are perfectly fair.
        assert!((jain_index(&[2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
        // One tenant hogging everything gives 1/n.
        assert!((jain_index(&[5.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Intermediate cases stay in (1/n, 1).
        let j = jain_index(&[1.0, 2.0, 3.0]);
        assert!(j > 1.0 / 3.0 && j < 1.0, "{j}");
    }

    #[test]
    fn multitask_aggregates() {
        let mk = |tenant: usize, risc: u64, turnaround: u64| TenantStats {
            tenant,
            app: format!("app{tenant}"),
            weight: 1,
            risc_baseline: Cycles::new(risc),
            turnaround: Cycles::new(turnaround),
            ..TenantStats::default()
        };
        let m = MultitaskStats {
            policy: "test".into(),
            tenants: vec![mk(0, 1_000, 500), mk(1, 1_000, 1_000)],
            makespan: Cycles::new(1_000),
            ..MultitaskStats::default()
        };
        // 2000 cycles of RISC work done in 1000 cycles of wall clock.
        assert!((m.aggregate_speedup() - 2.0).abs() < 1e-12);
        // Speedups 2.0 and 1.0 → Jain = 9/10.
        assert!((m.jain_fairness() - 0.9).abs() < 1e-12);
        let empty = MultitaskStats::default();
        assert_eq!(empty.aggregate_speedup(), 0.0);
        assert_eq!(empty.jain_fairness(), 1.0);
        assert_eq!(empty.throughput(), 0.0);
    }

    #[test]
    fn nearest_rank_percentile_edges() {
        // Empty sample and degenerate denominator.
        assert_eq!(nearest_rank_percentile(&[], 0, 95, 100), 0);
        assert_eq!(nearest_rank_percentile(&[1, 2], 0, 95, 0), 0);
        // All-zero sample.
        assert_eq!(nearest_rank_percentile(&[], 5, 99, 100), 0);
        // Pure nonzero sample: p50 of [10, 20, 30, 40] is rank 2.
        assert_eq!(nearest_rank_percentile(&[40, 10, 30, 20], 0, 50, 100), 20);
        // q = 0 clamps to rank 1; q = 100 is the max.
        assert_eq!(nearest_rank_percentile(&[40, 10], 0, 0, 100), 10);
        assert_eq!(nearest_rank_percentile(&[40, 10], 0, 100, 100), 40);
        // Mixed zeros: {0,0,0,7} → p75 is the last zero, p100 the 7.
        assert_eq!(nearest_rank_percentile(&[7], 3, 75, 100), 0);
        assert_eq!(nearest_rank_percentile(&[7], 3, 100, 100), 7);
    }

    #[test]
    fn fleet_stats_aggregates() {
        let mk = |id: u32, submitted: u64, admitted: u64, departed: u64| SessionStats {
            id,
            app: "fft".into(),
            fabric: Some(0),
            weight: 1,
            submitted: Cycles::new(submitted),
            admitted_at: Cycles::new(admitted),
            departed_at: Cycles::new(departed),
            queued: admitted > submitted,
            ..SessionStats::default()
        };
        let mut s = FleetStats {
            policy: "rr/dynamic".into(),
            offered: 4,
            accepted: 3,
            rejected: 1,
            makespan: Cycles::new(4_000_000),
            sessions: vec![
                mk(0, 0, 0, 1_000_000),
                mk(1, 0, 500_000, 3_500_000),
                mk(2, 100, 100, 2_000_100),
            ],
            fabrics: vec![FabricStats {
                fabric: 0,
                sessions: 3,
                busy_cycles: Cycles::new(2_000_000),
                last_active: Cycles::new(4_000_000),
            }],
            ..FleetStats::default()
        };
        s.sessions.push(SessionStats {
            id: 3,
            rejected: true,
            ..SessionStats::default()
        });
        assert!((s.acceptance_rate() - 0.75).abs() < 1e-12);
        assert!((s.rejection_rate() - 0.25).abs() < 1e-12);
        assert!((s.queued_rate() - 0.25).abs() < 1e-12);
        assert!((s.throughput() - 0.75).abs() < 1e-12);
        // Latencies: 1_000_000, 3_500_000, 2_000_000 (rejected excluded).
        assert_eq!(s.latency_percentile(50, 100), 2_000_000);
        assert_eq!(s.latency_percentile(99, 100), 3_500_000);
        assert!((s.mean_queue_wait() - 500_000.0 / 3.0).abs() < 1e-6);
        assert_eq!(s.fabrics[0].util_ppm(s.makespan), 500_000);
        // Perfectly even windows → Jain 1.0 in each.
        s.busy_windows = vec![vec![10, 0], vec![10, 0]];
        assert_eq!(s.window_jain(), vec![1.0, 1.0]);
        assert!((FleetStats::default().acceptance_rate() - 1.0).abs() < 1e-12);
        assert_eq!(FleetStats::default().latency_percentile(95, 100), 0);
    }

    #[test]
    fn slo_miss_rate_and_percentiles() {
        let m = MultitaskStats {
            tenants: vec![
                TenantStats {
                    slo_deadlines: 8,
                    deadline_misses: 2,
                    tardiness: vec![500, 100],
                    ..TenantStats::default()
                },
                TenantStats {
                    slo_deadlines: 2,
                    deadline_misses: 1,
                    tardiness: vec![900],
                    ..TenantStats::default()
                },
            ],
            ..MultitaskStats::default()
        };
        assert_eq!(m.slo_deadlines(), 10);
        assert_eq!(m.deadline_misses(), 3);
        assert!((m.miss_rate() - 0.3).abs() < 1e-12);
        // Sorted lateness sample: seven 0s, then 100, 500, 900.
        assert_eq!(m.tardiness_percentile(50, 100), 0);
        assert_eq!(m.tardiness_percentile(80, 100), 100);
        assert_eq!(m.tardiness_percentile(90, 100), 500);
        // Nearest-rank: p95 over 10 samples is the 10th, i.e. the max.
        assert_eq!(m.tardiness_percentile(95, 100), 900);
        assert_eq!(m.tardiness_percentile(100, 100), 900);
        assert_eq!(MultitaskStats::default().tardiness_percentile(95, 100), 0);
        let t = &m.tenants[0];
        assert!((t.miss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(t.max_tardiness(), 500);
    }
}
