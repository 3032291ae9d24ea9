//! Shared machinery of the baseline policies: fabric bookkeeping
//! (evictable units, eviction lists) and offline profiling summaries.

use mrts_arch::{Cycles, FabricKind, Machine, Resources};
use mrts_ise::{IseCatalog, KernelId, UnitId};
use mrts_workload::Trace;
use std::collections::BTreeMap;

/// Units present (resident or streaming) on the machine.
#[must_use]
pub fn present_units(machine: &Machine) -> Vec<UnitId> {
    let mut ids: Vec<u64> = machine.fg().resident_ids(Cycles::MAX);
    ids.extend(machine.cg().resident_ids(Cycles::MAX));
    ids.sort_unstable();
    ids.into_iter().map(UnitId::from_loaded_id).collect()
}

/// Present units whose kernel is *not* in `keep_kernels`, together with
/// their summed resources — what a policy may reclaim for a new block.
#[must_use]
pub fn evictable_units(
    machine: &Machine,
    catalog: &IseCatalog,
    keep_kernels: &[KernelId],
) -> (Vec<UnitId>, Resources) {
    let evictable: Vec<UnitId> = present_units(machine)
        .into_iter()
        // Units outside the catalogue belong to other tasks sharing the
        // fabric: they occupy slots but are not ours to evict.
        .filter(|u| {
            catalog
                .unit_checked(*u)
                .is_some_and(|unit| !keep_kernels.contains(&unit.kernel()))
        })
        .collect();
    let res = evictable.iter().map(|u| catalog.unit(*u).resources()).sum();
    (evictable, res)
}

/// Chooses which evictable units to actually evict so that `need` fits on
/// top of `free` (per fabric component), in deterministic unit order.
#[must_use]
pub fn eviction_list(
    catalog: &IseCatalog,
    need: Resources,
    free: Resources,
    evictable: &[UnitId],
) -> Vec<UnitId> {
    let mut cg_short = need.cg().saturating_sub(free.cg());
    let mut prc_short = need.prc().saturating_sub(free.prc());
    let mut out = Vec::new();
    for &u in evictable {
        if cg_short == 0 && prc_short == 0 {
            break;
        }
        match catalog.unit(u).fabric() {
            FabricKind::CoarseGrained if cg_short > 0 => {
                out.push(u);
                cg_short -= 1;
            }
            FabricKind::FineGrained if prc_short > 0 => {
                out.push(u);
                prc_short -= 1;
            }
            _ => {}
        }
    }
    out
}

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
    use mrts_arch::ArchParams;
    use mrts_workload::synthetic::{synthetic_trace, Pattern};
    use mrts_workload::WorkloadModel;

    #[test]
    fn profiled_totals_sum_trace() {
        let toy = mrts_ingest::model("toy").expect("builtin toy lowers");
        let trace = synthetic_trace(&toy, &[Pattern::Constant(100)], 5);
        let p = ProfiledTotals::from_trace(&trace);
        assert_eq!(p.executions_of(KernelId(0)), 500);
        assert_eq!(p.gap_of(KernelId(0)), Cycles::new(300));
        assert_eq!(p.executions_of(KernelId(9)), 0);
    }

    #[test]
    fn eviction_list_frees_exactly_the_shortfall() {
        let toy = mrts_ingest::model("toy").expect("builtin toy lowers");
        let catalog = toy
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        // Find one CG and one FG unit in the catalogue.
        let cg_unit = catalog
            .units()
            .iter()
            .find(|u| u.fabric() == FabricKind::CoarseGrained)
            .unwrap()
            .id();
        let fg_unit = catalog
            .units()
            .iter()
            .find(|u| u.fabric() == FabricKind::FineGrained)
            .unwrap()
            .id();
        let evictable = vec![cg_unit, fg_unit];
        // Need 1 CG, have 0 free: only the CG unit must be evicted.
        let out = eviction_list(&catalog, Resources::cg_only(1), Resources::NONE, &evictable);
        assert_eq!(out, vec![cg_unit]);
        // Nothing needed: nothing evicted.
        assert!(eviction_list(&catalog, Resources::NONE, Resources::NONE, &evictable).is_empty());
    }
}
