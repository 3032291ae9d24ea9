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
//! | `bench_suite` | extra — perf-regression tracking (`BENCH_perf.json`) |
//!
//! This library holds the pieces the binaries share: the fabric-combination
//! sweep, policy construction and run helpers, the order-preserving
//! parallel sweep runner ([`par`]) and plain-text table printing.
//! Everything is deterministic (fixed seeds) so figure output is
//! reproducible bit for bit — including across `--threads` settings: cells
//! are computed in parallel but assembled and printed in input order, so
//! `--threads 1` and `--threads N` emit identical bytes.
//!
//! The `bench_suite` binary times the harness itself (sweep wall-clock
//! serial vs parallel, per-selection cost, simulator throughput) and writes
//! `BENCH_perf.json` so every future PR has a perf trajectory to diff
//! against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod par;

use mrts_arch::{ArchParams, Cycles, FaultModel, Machine, Resources};
use mrts_baselines::{
    LooselyCoupledPolicy, OfflineOptimalPolicy, OnlineOptimalPolicy, ProfiledTotals, RisppPolicy,
};
use mrts_core::Mrts;
use mrts_ingest::ManifestModel;
use mrts_ise::{IseCatalog, KernelId};
use mrts_sim::{RiscOnlyPolicy, RunStats, RuntimePolicy, Simulator};
use mrts_workload::{Trace, TraceBuilder, VideoModel, WorkloadModel};

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
    /// The profiling summary for the offline baselines.
    pub totals: ProfiledTotals,
}

impl Testbed {
    /// Builds the testbed for `spec` (paper video model, paper
    /// architecture).
    ///
    /// # Panics
    ///
    /// Panics if the spec does not resolve or its kernels fail to map —
    /// the specs the harness passes are the checked-in builtins, covered
    /// by the ingest tests.
    #[must_use]
    pub fn new(spec: &str, seed: u64) -> Self {
        let model =
            mrts_ingest::model(spec).unwrap_or_else(|e| panic!("ingest '{spec}' failed: {e}"));
        let catalog = model
            .application()
            .build_catalog(ArchParams::default(), None)
            .expect("ingested kernels are mappable");
        let trace = TraceBuilder::new(&model)
            .video(VideoModel::paper_default(seed))
            .build();
        let totals = ProfiledTotals::from_trace(&trace);
        Testbed {
            model,
            catalog,
            trace,
            totals,
        }
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

    /// A fresh machine with the given fabric combination.
    ///
    /// # Panics
    ///
    /// Panics only on invalid default parameters (impossible).
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
    /// Panics only on invalid default parameters (impossible).
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

    /// Runs the four Fig. 8 contenders plus the RISC reference on one
    /// combination. Returns `(risc, rispp, offline_optimal, morpheus_4s,
    /// mrts)`.
    #[must_use]
    pub fn run_fig8_contenders(
        &self,
        combo: Resources,
    ) -> (RunStats, RunStats, RunStats, RunStats, RunStats) {
        let risc = self.run(combo, &mut RiscOnlyPolicy::new());
        let rispp = self.run(combo, &mut RisppPolicy::new());
        let capacity = self.machine(combo).capacity();
        let offline = self.run(
            combo,
            &mut OfflineOptimalPolicy::new(&self.catalog, capacity, &self.totals),
        );
        let morpheus = self.run(
            combo,
            &mut LooselyCoupledPolicy::new(&self.catalog, capacity, &self.totals),
        );
        let mrts = self.run(combo, &mut Mrts::new());
        (risc, rispp, offline, morpheus, mrts)
    }

    /// Runs greedy-mRTS and the online-optimal reference on one
    /// combination. Returns `(mrts, optimal)`.
    #[must_use]
    pub fn run_fig9_pair(&self, combo: Resources) -> (RunStats, RunStats) {
        let mrts = self.run(combo, &mut Mrts::new());
        let optimal = self.run(combo, &mut OnlineOptimalPolicy::new());
        (mrts, optimal)
    }

    /// Runs the domain-comparison contenders on one combination.
    /// Returns `(risc, rispp, mrts)`.
    #[must_use]
    pub fn run_domain_contenders(&self, combo: Resources) -> (RunStats, RunStats, RunStats) {
        let risc = self.run(combo, &mut RiscOnlyPolicy::new());
        let rispp = self.run(combo, &mut RisppPolicy::new());
        let mrts = self.run(combo, &mut Mrts::new());
        (risc, rispp, mrts)
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
        let tb = Testbed::new("h264", DEFAULT_SEED);
        assert_eq!(tb.kernel("deblock"), KernelId(10));
        let stats = tb.run(Resources::NONE, &mut RiscOnlyPolicy::new());
        assert!(stats.total_busy().get() > 0);
    }
}
