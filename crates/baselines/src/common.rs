//! Offline profiling summaries for the baseline policies. Their
//! trigger-time fabric accounting is mRTS's own
//! ([`mrts_core::FabricAccount`]).

use mrts_arch::Cycles;
use mrts_ise::KernelId;
use mrts_workload::Trace;
use std::collections::BTreeMap;

/// Whole-run profiling summary: what an *offline* selection scheme knows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfiledTotals {
    /// Total executions per kernel over the whole run.
    pub executions: BTreeMap<KernelId, u64>,
    /// Mean inter-execution gap per kernel.
    pub gap: BTreeMap<KernelId, Cycles>,
}

impl ProfiledTotals {
    /// Summarizes a trace (the paper's offline schemes perform *"an
    /// extensive evaluation of an application's processing behaviour"* at
    /// compile time; giving them the real totals of the very input to be
    /// run makes them the strongest possible static competitor).
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        let mut executions: BTreeMap<KernelId, u64> = BTreeMap::new();
        let mut gap_sum: BTreeMap<KernelId, (u64, u64)> = BTreeMap::new();
        for act in trace.activations() {
            for a in &act.actual {
                *executions.entry(a.kernel).or_insert(0) += a.executions;
                let e = gap_sum.entry(a.kernel).or_insert((0, 0));
                e.0 += a.gap.get();
                e.1 += 1;
            }
        }
        let gap = gap_sum
            .into_iter()
            .map(|(k, (s, n))| (k, Cycles::new(s / n.max(1))))
            .collect();
        ProfiledTotals { executions, gap }
    }

    /// Total executions of one kernel (0 when never observed).
    #[must_use]
    pub fn executions_of(&self, kernel: KernelId) -> u64 {
        self.executions.get(&kernel).copied().unwrap_or(0)
    }

    /// Mean gap of one kernel.
    #[must_use]
    pub fn gap_of(&self, kernel: KernelId) -> Cycles {
        self.gap.get(&kernel).copied().unwrap_or(Cycles::new(300))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_workload::synthetic::{synthetic_trace, Pattern};

    #[test]
    fn profiled_totals_sum_trace() {
        let toy = mrts_ingest::model("toy").expect("builtin toy lowers");
        let trace = synthetic_trace(&toy, &[Pattern::Constant(100)], 5);
        let p = ProfiledTotals::from_trace(&trace);
        assert_eq!(p.executions_of(KernelId(0)), 500);
        assert_eq!(p.gap_of(KernelId(0)), Cycles::new(300));
        assert_eq!(p.executions_of(KernelId(9)), 0);
    }
}
