//! One policy factory shared by the CLI, the benches and the multi-tenant
//! runner, so every tool accepts the same policy names and builds
//! identically configured instances.

use crate::StaticPolicy;
use mrts_arch::Resources;
use mrts_core::{Mrts, MrtsConfig};
use mrts_ise::IseCatalog;
use mrts_sim::{RiscOnlyPolicy, RuntimePolicy};
use mrts_workload::Trace;

/// Every policy name [`make_policy`] accepts, in reporting order.
pub const POLICY_NAMES: &[&str] = &["mrts", "risc", "rispp", "morpheus", "offline", "optimal"];

/// Run-time tuning knobs shared by every front end (CLI, benches,
/// multi-tenant runner). Only the `mrts` policy consumes them; the
/// baselines, the `rispp` and `optimal` presets included, run as the paper
/// defines them and silently ignore the struct.
///
/// The `Default` value is the untuned paper configuration, so front ends
/// can thread a `PolicyTuning` unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyTuning {
    /// Overrides the MPU's learning rate (`None` keeps the paper's 0.5).
    /// Callers validate the 0.0..=1.0 range at parse time; out-of-range
    /// values are clamped by the MPU anyway.
    pub mpu_alpha: Option<f64>,
}

impl PolicyTuning {
    /// The [`MrtsConfig`] these knobs select.
    fn mrts_config(&self) -> MrtsConfig {
        let mut config = MrtsConfig::default();
        if let Some(alpha) = self.mpu_alpha {
            config.mpu_alpha = alpha;
        }
        config
    }
}

/// Builds a fresh, boxed run-time policy by name.
///
/// `catalog`, `capacity` and `trace` parameterize the static policies
/// (which bind their selection at "compile time" from the whole run's
/// profile, built here and only for them); the online policies ignore
/// them. `tuning` configures the `mrts` policy
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
    trace: &Trace,
    tuning: PolicyTuning,
) -> Result<Box<dyn RuntimePolicy>, String> {
    match name {
        "mrts" => Ok(Box::new(Mrts::with_config(tuning.mrts_config()))),
        "risc" => Ok(Box::new(RiscOnlyPolicy::new())),
        "rispp" => Ok(Box::new(Mrts::with_config(MrtsConfig::rispp_like()))),
        "morpheus" => Ok(Box::new(StaticPolicy::loosely_coupled(
            catalog, capacity, trace,
        ))),
        "offline" => Ok(Box::new(StaticPolicy::offline_optimal(
            catalog, capacity, trace,
        ))),
        "optimal" => Ok(Box::new(Mrts::with_config(MrtsConfig::online_optimal()))),
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
        let capacity = Resources::new(2, 2);
        let tuning = PolicyTuning::default();
        for name in POLICY_NAMES {
            let p = make_policy(name, &catalog, capacity, &trace, tuning);
            assert!(p.is_ok(), "policy '{name}' failed to build");
        }
        assert!(make_policy("bogus", &catalog, capacity, &trace, tuning).is_err());
    }

    #[test]
    fn online_baselines_are_mrts_presets_that_ignore_tuning() {
        let h264 = mrts_ingest::model("h264").expect("builtin h264 lowers");
        let catalog = h264
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let trace = mrts_workload::TraceBuilder::new(&h264).build();
        let capacity = Resources::new(2, 2);
        let tuned = PolicyTuning {
            mpu_alpha: Some(1.0),
        };
        let run = |name: &str, tuning: PolicyTuning| {
            let mut policy = make_policy(name, &catalog, capacity, &trace, tuning).unwrap();
            let machine = mrts_arch::Machine::new(ArchParams::default(), capacity).unwrap();
            mrts_sim::Simulator::run(&catalog, machine, &trace, policy.as_mut())
        };
        for (name, config) in [
            ("rispp", MrtsConfig::rispp_like()),
            ("optimal", MrtsConfig::online_optimal()),
        ] {
            let preset = {
                let machine = mrts_arch::Machine::new(ArchParams::default(), capacity).unwrap();
                let mut policy = Mrts::with_config(config);
                mrts_sim::Simulator::run(&catalog, machine, &trace, &mut policy)
            };
            assert_eq!(run(name, PolicyTuning::default()), preset, "{name}");
            assert_eq!(run(name, tuned), preset, "{name} must ignore tuning");
        }
        // The same knobs do reach mRTS.
        assert_ne!(run("mrts", tuned), run("mrts", PolicyTuning::default()));
    }
}
