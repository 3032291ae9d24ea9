//! One policy factory shared by the CLI, the benches and the multi-tenant
//! runner, so every tool accepts the same policy names and builds
//! identically configured instances.

use crate::common::ProfiledTotals;
use crate::offline::{LooselyCoupledPolicy, OfflineOptimalPolicy};
use crate::optimal::OnlineOptimalPolicy;
use crate::rispp::RisppPolicy;
use mrts_arch::Resources;
use mrts_core::{Mrts, MrtsConfig};
use mrts_ise::IseCatalog;
use mrts_sim::{RiscOnlyPolicy, RuntimePolicy};

/// Every policy name [`make_policy`] accepts, in reporting order.
pub const POLICY_NAMES: &[&str] = &["mrts", "risc", "rispp", "morpheus", "offline", "optimal"];

/// Run-time tuning knobs shared by every front end (CLI, benches,
/// multi-tenant runner). Only the `mrts` policy consumes them; the
/// baselines have no equivalent knobs and silently ignore the struct.
///
/// The `Default` value is the untuned paper configuration, so front ends
/// can thread a `PolicyTuning` unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyTuning {
    /// Overrides the MPU's learning rate (`None` keeps the paper's 0.5).
    /// Callers validate the 0.0..=1.0 range at parse time; out-of-range
    /// values are clamped by the MPU anyway.
    pub mpu_alpha: Option<f64>,
    /// Enables the speculative reconfiguration prefetcher (DESIGN.md §12).
    pub prefetch: bool,
    /// Overrides the prefetcher's minimum nomination confidence (`None`
    /// keeps the [`mrts_core::PrefetchConfig`] default). Ignored unless
    /// `prefetch` is set.
    pub prefetch_confidence: Option<f64>,
}

impl PolicyTuning {
    /// The [`MrtsConfig`] these knobs select.
    #[must_use]
    pub fn mrts_config(&self) -> MrtsConfig {
        let mut config = MrtsConfig::default();
        if let Some(alpha) = self.mpu_alpha {
            config.mpu_alpha = alpha;
        }
        config.prefetch.enabled = self.prefetch;
        if let Some(c) = self.prefetch_confidence {
            config.prefetch.confidence_min = c;
        }
        config
    }
}

/// Builds a fresh, boxed run-time policy by name.
///
/// `catalog`, `capacity` and `totals` parameterize the offline policies
/// (which bind their selection at "compile time" from profiled totals);
/// the online policies ignore them. `tuning` configures the `mrts` policy
/// only. In a multi-tenant run each tenant gets its own instance built
/// from *its* catalogue and fabric slice.
///
/// # Errors
///
/// Returns a message listing the accepted names if `name` is unknown.
pub fn make_policy(
    name: &str,
    catalog: &IseCatalog,
    capacity: Resources,
    totals: &ProfiledTotals,
    tuning: PolicyTuning,
) -> Result<Box<dyn RuntimePolicy>, String> {
    match name {
        "mrts" => Ok(Box::new(Mrts::with_config(tuning.mrts_config()))),
        "risc" => Ok(Box::new(RiscOnlyPolicy::new())),
        "rispp" => Ok(Box::new(RisppPolicy::new())),
        "morpheus" => Ok(Box::new(LooselyCoupledPolicy::new(
            catalog, capacity, totals,
        ))),
        "offline" => Ok(Box::new(OfflineOptimalPolicy::new(
            catalog, capacity, totals,
        ))),
        "optimal" => Ok(Box::new(OnlineOptimalPolicy::new())),
        other => Err(format!(
            "unknown policy '{other}' ({})",
            POLICY_NAMES.join("|")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_arch::ArchParams;
    use mrts_workload::synthetic::{synthetic_trace, Pattern};
    use mrts_workload::WorkloadModel;

    #[test]
    fn factory_builds_every_listed_policy() {
        let toy = mrts_ingest::model("toy").expect("builtin toy lowers");
        let catalog = toy
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let trace = synthetic_trace(&toy, &[Pattern::Constant(100)], 2);
        let totals = ProfiledTotals::from_trace(&trace);
        let capacity = Resources::new(2, 2);
        let tuning = PolicyTuning::default();
        for name in POLICY_NAMES {
            let p = make_policy(name, &catalog, capacity, &totals, tuning);
            assert!(p.is_ok(), "policy '{name}' failed to build");
        }
        assert!(make_policy("bogus", &catalog, capacity, &totals, tuning).is_err());
    }
}
