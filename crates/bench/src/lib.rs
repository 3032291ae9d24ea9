//! # mrts-bench — the experiment harness
//!
//! One binary per figure of the paper's evaluation (Section 5):
//!
//! | target | regenerates |
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
//! This library holds the pieces the binaries share: the fabric-combination
//! sweep, policy construction and run helpers, the order-preserving
//! parallel sweep runner ([`par`]) and plain-text table printing.
//! Everything is deterministic (fixed seeds) so figure output is
//! reproducible bit for bit — including across `--threads` settings: cells
//! are computed in parallel but assembled and printed in input order, so
//! `--threads 1` and `--threads N` emit identical bytes.
//!
//! Host time is measured by `perfbench/`, not here: these binaries check
//! the paper's numbers, and their output is byte-stable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod par;

use mrts_arch::{ArchParams, Cycles, FaultModel, Machine, Resources};
use mrts_baselines::make_policy;
use mrts_ingest::ManifestModel;
use mrts_ise::{Grain, Ise, IseCatalog, KernelId};
use mrts_sim::{RunStats, RuntimePolicy, Simulator};
use mrts_workload::{Trace, TraceBuilder, VideoModel, WorkloadModel};
use std::error::Error;

/// The seed every figure uses (printed in each header for reproducibility).
pub const DEFAULT_SEED: u64 = 1;

/// The Fig. 8 fabric sweep: CG fabrics 0..=4 × PRCs 0..=3 (the first
/// combination, 0/0, is the RISC-mode reference).
#[must_use]
pub fn fig8_combos() -> Vec<Resources> {
    let mut v = Vec::new();
    for cg in 0..=4u16 {
        for prc in 0..=3u16 {
            v.push(Resources::new(cg, prc));
        }
    }
    v
}

/// The Fig. 9 sweep: CG fabrics 0..=3 × PRCs 0..=6 (the paper's surface
/// puts its worst case at {0 CG, 4 PRCs}).
#[must_use]
pub fn fig9_combos() -> Vec<Resources> {
    let mut v = Vec::new();
    for cg in 0..=3u16 {
        for prc in 0..=6u16 {
            v.push(Resources::new(cg, prc));
        }
    }
    v
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
    pub fn new(spec: &str, seed: u64) -> Result<Self, Box<dyn Error>> {
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
    /// # Panics
    ///
    /// Panics if the combination's CG context slots overflow a `u16`
    /// (see [`Machine::new`]); every figure's grid is far below that.
    #[must_use]
    pub fn machine(&self, combo: Resources) -> Machine {
        Machine::new(ArchParams::default(), combo).expect("default params are valid")
    }

    /// Runs one policy on one fabric combination.
    #[must_use]
    pub fn run(&self, combo: Resources, policy: &mut dyn RuntimePolicy) -> RunStats {
        Simulator::run(&self.catalog, self.machine(combo), &self.trace, policy)
    }

    /// Runs one policy on one fabric combination with an armed fault model.
    ///
    /// # Panics
    ///
    /// As [`machine`](Self::machine).
    #[must_use]
    pub fn run_with_faults(
        &self,
        combo: Resources,
        fault: FaultModel,
        policy: &mut dyn RuntimePolicy,
    ) -> RunStats {
        let machine = Machine::with_fault_model(ArchParams::default(), combo, fault)
            .expect("default params are valid");
        Simulator::run(&self.catalog, machine, &self.trace, policy)
    }

    /// Runs the policy the factory builds under `name` (one of
    /// [`POLICY_NAMES`](mrts_baselines::POLICY_NAMES)) on one fabric
    /// combination; the static policies bind their selection from this
    /// testbed's trace and the machine's capacity.
    ///
    /// # Errors
    ///
    /// Returns the factory's message if `name` is unknown.
    ///
    /// # Panics
    ///
    /// As [`machine`](Self::machine).
    pub fn run_policy(&self, combo: Resources, name: &str) -> Result<RunStats, String> {
        let machine = self.machine(combo);
        let mut policy = make_policy(name, &self.catalog, machine.capacity(), &self.trace)?;
        Ok(Simulator::run(
            &self.catalog,
            machine,
            &self.trace,
            policy.as_mut(),
        ))
    }
}

/// Geometric mean of a slice (1.0 for empty input).
#[must_use]
pub fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean (0.0 for empty input).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Formats a cycles value as millions with three decimals (the Fig. 8
/// y-axis unit).
#[must_use]
pub fn mcycles(c: Cycles) -> String {
    format!("{:8.3}", c.as_mcycles())
}

/// Prints a standard figure header with the reproduction seed.
pub fn print_header(figure: &str, description: &str, seed: u64) {
    println!("================================================================");
    println!("{figure} — {description}");
    println!("(mRTS reproduction; deterministic, seed = {seed})");
    println!("================================================================");
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
    fn means() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), 1.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
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
    fn an_unresolved_spec_is_the_ingest_error_naming_it() {
        let err = Testbed::new("no/such.json", DEFAULT_SEED).unwrap_err();
        assert!(err.is::<mrts_ingest::IngestError>(), "{err}");
        assert!(err.to_string().contains("no/such.json"), "{err}");
        let err = Testbed::new("bogus", DEFAULT_SEED).unwrap_err();
        assert!(err.to_string().contains("unknown app 'bogus'"), "{err}");
    }
}
