//! Instruction Set Extensions and their intermediate stages.

use crate::ids::{IseId, KernelId, UnitId};
use mrts_arch::{Cycles, FabricKind, Resources};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The grain of an ISE: which fabric kinds its data paths occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Grain {
    /// All data paths on the FG fabric (the paper's ISE-1 flavour).
    FineGrained,
    /// All data paths on the CG fabric (ISE-2 flavour).
    CoarseGrained,
    /// Mixed — a true multi-grained ISE (ISE-3 flavour).
    MultiGrained,
}

impl fmt::Display for Grain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Grain::FineGrained => write!(f, "FG"),
            Grain::CoarseGrained => write!(f, "CG"),
            Grain::MultiGrained => write!(f, "MG"),
        }
    }
}

/// One reconfiguration stage of an ISE: a load unit together with the
/// latency reduction its arrival brings.
///
/// Stages are ordered by the catalogue builder in *descending saving*
/// order, which is the order the reconfiguration controller streams them —
/// the biggest win arrives first, producing the paper's Fig. 5 pattern of
/// progressively shrinking execution boxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IseStage {
    /// The artefact loaded in this stage.
    pub unit: UnitId,
    /// Which fabric it occupies.
    pub fabric: FabricKind,
    /// Pure transfer duration of the load.
    pub load_duration: Cycles,
    /// Core cycles saved per kernel execution once resident.
    pub saving_per_exec: Cycles,
}

/// A compile-time prepared Instruction Set Extension.
///
/// An `Ise` is self-contained: it carries the per-stage savings so the
/// profit function (Eqs. 2–4) and the ECU can evaluate intermediate ISEs
/// without catalogue lookups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ise {
    id: IseId,
    kernel: KernelId,
    label: String,
    grain: Grain,
    stages: Vec<IseStage>,
    resources: Resources,
    risc_latency: Cycles,
    #[serde(default)]
    mono_extension: bool,
}

impl Ise {
    /// Creates an ISE (normally done by the catalogue builder).
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or if the accumulated savings exceed the
    /// RISC latency — the builder must clamp savings so that the fully
    /// configured ISE keeps a positive execution latency.
    #[must_use]
    pub fn new(
        id: IseId,
        kernel: KernelId,
        label: impl Into<String>,
        stages: Vec<IseStage>,
        risc_latency: Cycles,
    ) -> Self {
        assert!(!stages.is_empty(), "an ISE needs at least one stage");
        let total_saving: Cycles = stages.iter().map(|s| s.saving_per_exec).sum();
        assert!(
            total_saving < risc_latency,
            "ISE savings must leave a positive execution latency"
        );
        let resources: Resources = stages
            .iter()
            .map(|s| match s.fabric {
                FabricKind::FineGrained => Resources::prc_only(1),
                FabricKind::CoarseGrained => Resources::cg_only(1),
            })
            .sum();
        let grain = if resources.is_multi_grained() {
            Grain::MultiGrained
        } else if resources.is_cg_only() {
            Grain::CoarseGrained
        } else {
            Grain::FineGrained
        };
        Ise {
            id,
            kernel,
            label: label.into(),
            grain,
            stages,
            resources,
            risc_latency,
            mono_extension: false,
        }
    }

    /// Creates the catalogue entry representing a kernel's
    /// monoCG-Extension: a single-stage CG "ISE" that lets the selector
    /// weigh the extension against real ISEs when arbitrating scarce CG
    /// slots. Baseline run-time systems filter these out — the
    /// monoCG-Extension is an mRTS novelty.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Ise::new`].
    #[must_use]
    pub(crate) fn new_mono_extension(
        id: IseId,
        kernel: KernelId,
        label: impl Into<String>,
        stage: IseStage,
        risc_latency: Cycles,
    ) -> Self {
        let mut ise = Ise::new(id, kernel, label, vec![stage], risc_latency);
        ise.mono_extension = true;
        ise
    }

    /// Whether this catalogue entry is a monoCG-Extension rather than a
    /// compile-time prepared ISE.
    #[must_use]
    pub fn is_mono_extension(&self) -> bool {
        self.mono_extension
    }

    /// The ISE's identifier.
    #[must_use]
    pub fn id(&self) -> IseId {
        self.id
    }

    /// The kernel this ISE implements.
    #[must_use]
    pub fn kernel(&self) -> KernelId {
        self.kernel
    }

    /// Human-readable label, e.g. `deblock[cond@FG,filt@CG]`.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The grain classification (FG / CG / MG).
    #[must_use]
    pub fn grain(&self) -> Grain {
        self.grain
    }

    /// The reconfiguration stages in load order.
    #[must_use]
    pub fn stages(&self) -> &[IseStage] {
        &self.stages
    }

    /// Number of stages `n` (the fully configured ISE is `ISE_n`).
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The unit ids of all stages, in load order.
    pub fn unit_ids(&self) -> impl Iterator<Item = UnitId> + '_ {
        self.stages.iter().map(|s| s.unit)
    }

    /// Whether this ISE uses unit `u`.
    #[must_use]
    pub fn uses_unit(&self, u: UnitId) -> bool {
        self.stages.iter().any(|s| s.unit == u)
    }

    /// Total fabric demand.
    #[must_use]
    pub fn resources(&self) -> Resources {
        self.resources
    }

    /// RISC-mode latency of the kernel (`latency_RM`).
    #[must_use]
    pub fn risc_latency(&self) -> Cycles {
        self.risc_latency
    }

    /// Kernel latency after the first `i` stages have been reconfigured
    /// (`latency(ISE_i)` in Eq. 2/3). `i == 0` is RISC mode; `i ==
    /// stage_count()` is the fully configured ISE.
    ///
    /// # Panics
    ///
    /// Panics if `i > stage_count()`.
    #[must_use]
    fn latency_after_stage(&self, i: usize) -> Cycles {
        assert!(i <= self.stages.len(), "stage index out of range");
        let saved: Cycles = self.stages[..i].iter().map(|s| s.saving_per_exec).sum();
        self.risc_latency - saved
    }

    /// Latency of the fully configured ISE (`latency(ISE_n)`).
    #[must_use]
    pub fn full_latency(&self) -> Cycles {
        self.latency_after_stage(self.stages.len())
    }

    /// Kernel latency given an arbitrary set of resident units (not
    /// necessarily a stage prefix — units may have arrived via *other* ISEs
    /// that share data paths).
    #[must_use]
    pub fn latency_with(&self, resident: impl Fn(UnitId) -> bool) -> Cycles {
        let saved: Cycles = self
            .stages
            .iter()
            .filter(|s| resident(s.unit))
            .map(|s| s.saving_per_exec)
            .sum();
        self.risc_latency - saved
    }

    /// Whether every stage's unit is resident.
    #[must_use]
    pub fn is_fully_resident(&self, resident: impl Fn(UnitId) -> bool) -> bool {
        self.stages.iter().all(|s| resident(s.unit))
    }

    /// Total pure load time of all stages (lower bound of the
    /// reconfiguration latency, before port queueing).
    #[must_use]
    fn total_load_duration(&self) -> Cycles {
        self.stages.iter().map(|s| s.load_duration).sum()
    }

    /// Reconfiguration latency on an otherwise idle machine: each port
    /// streams its stages back to back and the two ports run in parallel,
    /// so the ISE is complete when the busier port is done. This is the
    /// `recT` of Eq. 1 in the Section 2 case study.
    #[must_use]
    pub fn isolated_reconfig_latency(&self) -> Cycles {
        let (mut fg, mut cg) = (Cycles::ZERO, Cycles::ZERO);
        for s in &self.stages {
            match s.fabric {
                FabricKind::FineGrained => fg += s.load_duration,
                FabricKind::CoarseGrained => cg += s.load_duration,
            }
        }
        fg.max(cg)
    }

    /// Whether this ISE *dominates* `other` (same kernel): it needs no more
    /// of either fabric, executes at least as fast once configured, and
    /// loads at least as quickly — with a strict advantage somewhere. A
    /// dominated variant can never be the best choice, whatever the
    /// execution forecast, so selectors may prune it.
    #[must_use]
    pub(crate) fn dominates(&self, other: &Ise) -> bool {
        if self.kernel != other.kernel {
            return false;
        }
        let no_worse = self.resources.fits_in(other.resources)
            && self.full_latency() <= other.full_latency()
            && self.total_load_duration() <= other.total_load_duration();
        let strictly_better = self.resources != other.resources
            || self.full_latency() < other.full_latency()
            || self.total_load_duration() < other.total_load_duration();
        no_worse && strictly_better
    }

    /// The `pif` of Eq. 1 for `executions` kernel executions, given a total
    /// reconfiguration latency (queueing included).
    ///
    /// ```text
    /// pif = (sw_time·e) / (reconfig_latency + hw_time·e)
    /// ```
    ///
    /// Returns 0.0 for zero executions.
    #[must_use]
    pub fn performance_improvement_factor(&self, executions: u64, reconfig_latency: Cycles) -> f64 {
        if executions == 0 {
            return 0.0;
        }
        let sw = self.risc_latency.get() as f64 * executions as f64;
        let hw = self.full_latency().get() as f64 * executions as f64;
        sw / (reconfig_latency.get() as f64 + hw)
    }
}

impl fmt::Display for Ise {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({}, {} stages, {})",
            self.id,
            self.label,
            self.grain,
            self.stages.len(),
            self.resources
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stage(unit: u64, fabric: FabricKind, load: u64, saving: u64) -> IseStage {
        IseStage {
            unit: UnitId(unit),
            fabric,
            load_duration: Cycles::new(load),
            saving_per_exec: Cycles::new(saving),
        }
    }

    fn mg_ise() -> Ise {
        Ise::new(
            IseId(0),
            KernelId(0),
            "k[a@FG,b@CG]",
            vec![
                stage(1, FabricKind::CoarseGrained, 60, 400),
                stage(2, FabricKind::FineGrained, 480_000, 300),
            ],
            Cycles::new(1_000),
        )
    }

    #[test]
    fn grain_classification() {
        assert_eq!(mg_ise().grain(), Grain::MultiGrained);
        let fg = Ise::new(
            IseId(1),
            KernelId(0),
            "fg",
            vec![stage(1, FabricKind::FineGrained, 10, 1)],
            Cycles::new(10),
        );
        assert_eq!(fg.grain(), Grain::FineGrained);
        assert_eq!(fg.resources(), Resources::prc_only(1));
    }

    #[test]
    fn intermediate_latencies_shrink() {
        let ise = mg_ise();
        assert_eq!(ise.latency_after_stage(0), Cycles::new(1_000));
        assert_eq!(ise.latency_after_stage(1), Cycles::new(600));
        assert_eq!(ise.latency_after_stage(2), Cycles::new(300));
        assert_eq!(ise.full_latency(), Cycles::new(300));
    }

    #[test]
    fn latency_with_arbitrary_residency() {
        let ise = mg_ise();
        // Only the second stage's unit is resident (arrived via a sharing
        // ISE): savings apply out of order.
        assert_eq!(ise.latency_with(|u| u == UnitId(2)), Cycles::new(700));
        assert!(!ise.is_fully_resident(|u| u == UnitId(2)));
        assert!(ise.is_fully_resident(|_| true));
    }

    #[test]
    fn pif_matches_eq_1() {
        let ise = mg_ise();
        // pif = (1000*e) / (recfg + 300*e)
        let recfg = Cycles::new(480_060);
        let pif1 = ise.performance_improvement_factor(1, recfg);
        assert!((pif1 - 1_000.0 / 480_360.0).abs() < 1e-9);
        let pif_many = ise.performance_improvement_factor(1_000_000, recfg);
        // Asymptote: sw/hw = 1000/300.
        assert!((pif_many - 1_000.0 / 300.0).abs() < 0.01);
        assert_eq!(ise.performance_improvement_factor(0, recfg), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive execution latency")]
    fn excessive_savings_rejected() {
        let _ = Ise::new(
            IseId(0),
            KernelId(0),
            "bad",
            vec![stage(1, FabricKind::CoarseGrained, 1, 1_000)],
            Cycles::new(1_000),
        );
    }

    #[test]
    fn total_load_duration_sums_stages() {
        assert_eq!(mg_ise().total_load_duration(), Cycles::new(480_060));
        // The two ports load in parallel: the FG port is the busier one.
        assert_eq!(mg_ise().isolated_reconfig_latency(), Cycles::new(480_000));
    }

    #[test]
    fn dominance_is_strict_and_kernel_scoped() {
        let better = Ise::new(
            IseId(1),
            KernelId(0),
            "better",
            vec![stage(1, FabricKind::CoarseGrained, 60, 500)],
            Cycles::new(1_000),
        );
        let worse = Ise::new(
            IseId(2),
            KernelId(0),
            "worse",
            vec![
                stage(1, FabricKind::CoarseGrained, 60, 300),
                stage(2, FabricKind::FineGrained, 480_000, 100),
            ],
            Cycles::new(1_000),
        );
        assert!(better.dominates(&worse));
        assert!(!worse.dominates(&better));
        // Never reflexive.
        assert!(!better.dominates(&better));
        // Never across kernels.
        let other_kernel = Ise::new(
            IseId(3),
            KernelId(1),
            "other",
            vec![stage(9, FabricKind::CoarseGrained, 60, 1)],
            Cycles::new(1_000),
        );
        assert!(!better.dominates(&other_kernel));
        // Incomparable trade-offs (cheaper area vs faster execution) do not
        // dominate each other.
        let fast_big = &mg_ise(); // 1 CG + 1 FG, latency 300
        let small_slow = Ise::new(
            IseId(4),
            KernelId(0),
            "small",
            vec![stage(1, FabricKind::CoarseGrained, 60, 400)],
            Cycles::new(1_000),
        );
        assert!(!small_slow.dominates(fast_big));
        assert!(!fast_big.dominates(&small_slow));
    }

    proptest! {
        /// latency_after_stage is monotonically non-increasing and
        /// latency_with over a prefix matches it.
        #[test]
        fn monotone_stage_latency(savings in proptest::collection::vec(1u64..200, 1..8)) {
            let total: u64 = savings.iter().sum();
            let risc = Cycles::new(total + 100);
            let stages: Vec<IseStage> = savings
                .iter()
                .enumerate()
                .map(|(i, &s)| stage(i as u64, FabricKind::CoarseGrained, 10, s))
                .collect();
            let ise = Ise::new(IseId(0), KernelId(0), "p", stages, risc);
            let mut prev = ise.latency_after_stage(0);
            for i in 1..=ise.stage_count() {
                let cur = ise.latency_after_stage(i);
                prop_assert!(cur <= prev);
                let prefix: Vec<UnitId> = ise.unit_ids().take(i).collect();
                prop_assert_eq!(ise.latency_with(|u| prefix.contains(&u)), cur);
                prev = cur;
            }
        }

        /// pif grows with the number of executions (the fixed reconfiguration
        /// overhead amortizes) — the premise of the paper's Fig. 1.
        #[test]
        fn pif_monotone_in_executions(e1 in 1u64..10_000, delta in 1u64..10_000) {
            let ise = mg_ise();
            let recfg = ise.total_load_duration();
            let lo = ise.performance_improvement_factor(e1, recfg);
            let hi = ise.performance_improvement_factor(e1 + delta, recfg);
            prop_assert!(hi >= lo);
        }
    }
}
