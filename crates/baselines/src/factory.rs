//! One policy factory shared by the CLI, the benches and the multi-tenant
//! runner, so every tool accepts the same policy names and builds
//! identically configured instances.

use crate::StaticPolicy;
use mrts_arch::Resources;
use mrts_core::{Mrts, MrtsConfig, SelectionMemo};
use mrts_ise::IseCatalog;
use mrts_sim::{RiscOnlyPolicy, RuntimePolicy};
use mrts_workload::Trace;

/// Every policy name [`make_policy`] accepts, in reporting order.
pub const POLICY_NAMES: &[&str] = &["mrts", "risc", "rispp", "morpheus", "offline", "optimal"];

/// Builds a fresh, boxed run-time policy by name.
///
/// `catalog`, `capacity` and `trace` parameterize the static policies
/// (which bind their selection at "compile time" from the whole run's
/// profile, built here and only for them); the online policies ignore
/// them. In a multi-tenant run each tenant gets its own instance built
/// from *its* catalogue and fabric slice.
///
/// `memo`, when given, is attached to the mRTS presets
/// ([`Mrts::with_memo`]); the other policies ignore it.
///
/// # Errors
///
/// Returns a message listing the accepted names if `name` is unknown.
pub fn make_policy(
    name: &str,
    catalog: &IseCatalog,
    capacity: Resources,
    trace: &Trace,
    memo: Option<&SelectionMemo>,
) -> Result<Box<dyn RuntimePolicy>, String> {
    let mrts = |config| {
        let mrts = Mrts::with_config(config);
        Box::new(match memo {
            Some(memo) => mrts.with_memo(memo.clone()),
            None => mrts,
        })
    };
    match name {
        "mrts" => Ok(mrts(MrtsConfig::default())),
        "risc" => Ok(Box::new(RiscOnlyPolicy::new())),
        "rispp" => Ok(mrts(MrtsConfig::rispp_like())),
        "morpheus" => Ok(Box::new(StaticPolicy::loosely_coupled(
            catalog, capacity, trace,
        ))),
        "offline" => Ok(Box::new(StaticPolicy::offline_optimal(
            catalog, capacity, trace,
        ))),
        "optimal" => Ok(mrts(MrtsConfig::online_optimal())),
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
        for name in POLICY_NAMES {
            let p = make_policy(name, &catalog, capacity, &trace, None);
            assert!(p.is_ok(), "policy '{name}' failed to build");
        }
        assert!(make_policy("bogus", &catalog, capacity, &trace, None).is_err());
    }

    #[test]
    fn online_baselines_are_mrts_presets() {
        let h264 = mrts_ingest::model("h264").expect("builtin h264 lowers");
        let catalog = h264
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let trace = mrts_workload::TraceBuilder::new(&h264).build();
        let capacity = Resources::new(2, 2);
        let machine = || mrts_arch::Machine::new(ArchParams::default(), capacity).unwrap();
        for (name, config) in [
            ("mrts", MrtsConfig::default()),
            ("rispp", MrtsConfig::rispp_like()),
            ("optimal", MrtsConfig::online_optimal()),
        ] {
            let mut policy = make_policy(name, &catalog, capacity, &trace, None).unwrap();
            let by_name = mrts_sim::Simulator::run(&catalog, machine(), &trace, policy.as_mut());
            let preset = mrts_sim::Simulator::run(
                &catalog,
                machine(),
                &trace,
                &mut Mrts::with_config(config),
            );
            assert_eq!(by_name, preset, "{name}");
        }
    }
}
