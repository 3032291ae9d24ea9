//! # mrts-bench — the experiment harness
//!
//! One runner, `figure NAME [--quick] [--threads N]`, prints every figure
//! of the paper's evaluation (Section 5) and the extra studies; NAME is the
//! stem of the figure's archived output in `results/`:
//!
//! | NAME | regenerates |
//! |---|---|
//! | `fig1_pif` | Fig. 1 — pif of the three deblocking-filter ISEs vs. executions |
//! | `fig2_exec_behavior` | Fig. 2 — per-frame deblocking executions + best ISE |
//! | `fig8_comparison` | Fig. 8 — four approaches over 20 fabric combinations |
//! | `fig9_heuristic_vs_optimal` | Fig. 9 — % gap greedy vs. online-optimal |
//! | `fig10_speedup_risc` | Fig. 10 — speedup vs. RISC-mode, FG/CG/MG groups |
//! | `overhead_mrts` | Section 5.4 — selection cost and overhead fraction |
//! | `ablation_design_choices` | extra — monoCG / MPU / copies ablations |
//! | `fault_sweep` | extra — speedup retention under injected hardware faults |
//! | `fig_multitask` | extra — multi-tenant sharing: aggregate speedup + fairness vs tenant count |
//! | `fig_overload` | extra — SLO ladder: deadline misses + tardiness past saturation, ladder on/off |
//! | `ablation_mpu_burst` | extra — MPU value on non-stationary step/burst/ramp series |
//! | `sensitivity_forecast_error` | extra — end-to-end cost vs trigger-forecast error |
//! | `fig_domains` | extra — Fig. 8-style comparison on the h264, cv and cryptomix domains |
//! | `fig_fleet_sweep` | extra — fleet accepted throughput vs offered load, dynamic vs static |
//!
//! Each figure is one entry of [`figures::FIGURES`]; this library also
//! holds what the figures and the CLI share: the fabric-combination grids,
//! the [`Testbed`] that builds and runs an app, and the order-preserving
//! parallel map ([`par`]). Everything is deterministic (fixed seeds) so
//! figure output is reproducible bit for bit — including across
//! `--threads` settings: cells are computed in parallel but assembled and
//! printed in input order, so `--threads 1` and `--threads N` emit
//! identical bytes.
//!
//! Host time is measured by `perfbench/`, not here: the figures check the
//! paper's numbers, and their output is byte-stable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod par;

use mrts_arch::{ArchError, ArchParams, FaultModel, Machine, Resources};
use mrts_baselines::make_policy;
use mrts_ingest::ManifestModel;
use mrts_ise::{Grain, Ise, IseCatalog, KernelId};
use mrts_sim::{RunStats, RuntimePolicy, Simulator};
use mrts_workload::{Trace, TraceBuilder, VideoModel, WorkloadModel};
use std::error::Error;

/// The seed the figures use (printed in each header for reproducibility).
pub const DEFAULT_SEED: u64 = 1;

/// The Fig. 8 fabric sweep: CG fabrics 0..=4 × PRCs 0..=3 (the first
/// combination, 0/0, is the RISC-mode reference).
#[must_use]
pub fn fig8_combos() -> Vec<Resources> {
    grid(4, 3)
}

/// The Fig. 9 sweep: CG fabrics 0..=3 × PRCs 0..=6 (the paper's surface
/// puts its worst case at {0 CG, 4 PRCs}).
#[must_use]
pub(crate) fn fig9_combos() -> Vec<Resources> {
    grid(3, 6)
}

/// CG fabrics `0..=cg` × PRCs `0..=prc`, CG-major.
fn grid(cg: u16, prc: u16) -> Vec<Resources> {
    let row = move |cg| (0..=prc).map(move |prc| Resources::new(cg, prc));
    (0..=cg).flat_map(row).collect()
}

/// Everything a figure run needs: one app's lowered workload model, its
/// catalogue and the video-driven trace. The app is any spec the ingestion
/// pipeline resolves — a builtin name such as `h264`, `fft`, `cv` or a
/// manifest path — so every figure runs through one code path.
#[derive(Debug)]
pub struct Testbed {
    /// The workload model lowered from the app's manifest.
    pub model: ManifestModel,
    /// The compile-time ISE catalogue.
    pub catalog: IseCatalog,
    /// The trace of the whole run.
    pub trace: Trace,
}

impl Testbed {
    /// Builds the testbed for `spec` (paper video model, paper
    /// architecture).
    ///
    /// # Errors
    ///
    /// Returns the ingest error, which names the spec, if `spec` does not
    /// resolve, or the mapping error if its kernels fail to map.
    pub fn new(spec: &str, seed: u64) -> Result<Self, Box<dyn Error + Send + Sync>> {
        let model = mrts_ingest::model(spec)?;
        let catalog = model
            .application()
            .build_catalog(ArchParams::default(), None)?;
        let trace = TraceBuilder::new(&model)
            .video(VideoModel::paper_default(seed))
            .build();
        Ok(Testbed {
            model,
            catalog,
            trace,
        })
    }

    /// The application's display name (from the lowered manifest).
    #[must_use]
    pub fn name(&self) -> &str {
        self.model.application().name()
    }

    /// The id of the kernel called `name`.
    ///
    /// # Panics
    ///
    /// Panics if the app has no such kernel.
    #[must_use]
    pub fn kernel(&self, name: &str) -> KernelId {
        self.catalog
            .kernels()
            .iter()
            .find(|k| k.name() == name)
            .unwrap_or_else(|| panic!("{} has no kernel '{name}'", self.name()))
            .id()
    }

    /// The three deblocking-filter ISEs of the Section 2 case study, one
    /// per grain: ISE-1 (FG), ISE-2 (CG) and ISE-3 (MG), each the
    /// catalogue's [`single_copy_ise`](IseCatalog::single_copy_ise).
    ///
    /// # Panics
    ///
    /// Panics if the application has no `deblock` kernel or lacks such a
    /// variant of some grain; the H.264 encoder has all three.
    #[must_use]
    pub fn case_study_ises(&self) -> [&Ise; 3] {
        let deblock = self.kernel("deblock");
        [
            Grain::FineGrained,
            Grain::CoarseGrained,
            Grain::MultiGrained,
        ]
        .map(|grain| {
            self.catalog
                .single_copy_ise(deblock, grain)
                .expect("variant exists")
        })
    }

    /// A fresh machine with the given fabric combination.
    ///
    /// # Errors
    ///
    /// Returns [`Machine::new`]'s error if the combination's CG context
    /// slots overflow a `u16`; every figure's grid is far below that.
    pub fn machine(&self, combo: Resources) -> Result<Machine, ArchError> {
        Machine::new(ArchParams::default(), combo)
    }

    /// Runs one policy on one fabric combination.
    ///
    /// # Errors
    ///
    /// As [`machine`](Self::machine).
    pub fn run(
        &self,
        combo: Resources,
        policy: &mut dyn RuntimePolicy,
    ) -> Result<RunStats, ArchError> {
        let machine = self.machine(combo)?;
        Ok(Simulator::run(&self.catalog, machine, &self.trace, policy))
    }

    /// Runs one policy on one fabric combination with an armed fault model.
    ///
    /// # Errors
    ///
    /// As [`machine`](Self::machine).
    pub fn run_with_faults(
        &self,
        combo: Resources,
        fault: FaultModel,
        policy: &mut dyn RuntimePolicy,
    ) -> Result<RunStats, ArchError> {
        let machine = Machine::with_fault_model(ArchParams::default(), combo, fault)?;
        Ok(Simulator::run(&self.catalog, machine, &self.trace, policy))
    }

    /// Runs the policy the factory builds under `name` (one of
    /// [`POLICY_NAMES`](mrts_baselines::POLICY_NAMES)) on one fabric
    /// combination; the static policies bind their selection from this
    /// testbed's trace and the machine's capacity.
    ///
    /// # Errors
    ///
    /// Returns [`machine`](Self::machine)'s error, or the factory's message
    /// if `name` is unknown.
    pub fn run_policy(
        &self,
        combo: Resources,
        name: &str,
    ) -> Result<RunStats, Box<dyn Error + Send + Sync>> {
        let machine = self.machine(combo)?;
        let mut policy = make_policy(name, &self.catalog, machine.capacity(), &self.trace, None)?;
        let stats = Simulator::run(&self.catalog, machine, &self.trace, policy.as_mut());
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_sweeps_have_expected_sizes() {
        assert_eq!(fig8_combos().len(), 20);
        assert_eq!(fig8_combos()[0], Resources::NONE);
        assert_eq!(fig9_combos().len(), 28);
    }

    #[test]
    fn testbed_builds_and_runs_smallest_combo() {
        let tb = Testbed::new("h264", DEFAULT_SEED).unwrap();
        assert_eq!(tb.kernel("deblock"), KernelId(10));
        let stats = tb.run_policy(Resources::NONE, "risc").unwrap();
        assert!(stats.total_busy().get() > 0);
        assert!(tb.run_policy(Resources::NONE, "bogus").is_err());
    }

    #[test]
    fn an_oversized_machine_is_machine_new_s_error_not_a_panic() {
        let tb = Testbed::new("toy", DEFAULT_SEED).unwrap();
        let combo = Resources::new(21846, 0);
        let expected = Machine::new(ArchParams::default(), combo).unwrap_err();
        assert!(
            matches!(expected, ArchError::InvalidParams(_)),
            "{expected}"
        );
        assert_eq!(tb.machine(combo).unwrap_err(), expected);
        let risc = mrts_sim::RiscOnlyPolicy::new;
        assert_eq!(tb.run(combo, &mut risc()).unwrap_err(), expected);
        assert_eq!(
            tb.run_with_faults(combo, FaultModel::new(0.1, 7), &mut risc())
                .unwrap_err(),
            expected
        );
        let err = tb.run_policy(combo, "risc").unwrap_err();
        assert_eq!(err.downcast_ref::<ArchError>(), Some(&expected));
    }

    #[test]
    fn an_unresolved_spec_is_the_ingest_error_naming_it() {
        let err = Testbed::new("no/such.json", DEFAULT_SEED).unwrap_err();
        assert!(err.is::<mrts_ingest::IngestError>(), "{err}");
        assert!(err.to_string().contains("no/such.json"), "{err}");
        let err = Testbed::new("bogus", DEFAULT_SEED).unwrap_err();
        assert!(err.to_string().contains("unknown app 'bogus'"), "{err}");
    }
}
