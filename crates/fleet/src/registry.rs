//! The fleet's application registry: catalogues, trace variants and
//! per-variant session preps, built once and shared by every session.
//!
//! Ten thousand sessions must not mean ten thousand catalogue builds and
//! solo-RISC baseline simulations. The registry builds each app's ISE
//! catalogue once and a small pool of *trace variants* per app (seeded,
//! deterministic), precomputes the [`TenantPrep`] of every variant, and
//! hands sessions borrowed catalogue/trace references plus a cloned prep.

use mrts_arch::ArchParams;
use mrts_ise::IseCatalog;
use mrts_multitask::{prep_session, MultitaskError, TenantPrep, TenantSpec};
use mrts_workload::synthetic::{synthetic_trace, Pattern};
use mrts_workload::{Trace, TraceBuilder, VideoModel, WorkloadModel};

/// One registered application: its catalogue and variant traces.
#[derive(Debug)]
struct AppEntry {
    name: String,
    catalog: IseCatalog,
    traces: Vec<Trace>,
    preps: Vec<TenantPrep>,
}

/// Errors of [`AppRegistry::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// An app spec the ingestion pipeline cannot resolve (unknown name,
    /// unreadable manifest path, or a manifest that fails a pass).
    UnknownApp(String),
    /// Catalogue construction failed.
    Catalog(String),
    /// A variant's session prep failed.
    Prep(MultitaskError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownApp(n) => write!(f, "cannot resolve app {n}"),
            RegistryError::Catalog(e) => write!(f, "catalogue construction failed: {e}"),
            RegistryError::Prep(e) => write!(f, "session prep failed: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A deterministic per-kernel pattern for variant `v`: the shape cycles
/// through constant/step/ramp/burst and the magnitudes are seeded, so
/// variants of one app exercise the run-time system differently while a
/// given `(seed, v)` always builds the same trace.
fn variant_pattern(seed: u64, v: usize, kernel: usize) -> Pattern {
    let x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((v as u64) << 8 | kernel as u64);
    let base = 150 + (x % 7) * 50;
    match v % 4 {
        0 => Pattern::Constant(base),
        1 => Pattern::Step {
            low: base / 2,
            high: base * 2,
            at: 1 + v % 3,
        },
        2 => Pattern::Ramp {
            from: base / 2,
            to: base * 2,
        },
        _ => Pattern::Burst {
            low: base / 2,
            high: base * 3,
            period: 2 + v % 3,
        },
    }
}

/// The registry: one entry per distinct app, `variants` seeded traces per
/// entry, with every variant's [`TenantPrep`] precomputed.
#[derive(Debug)]
pub struct AppRegistry {
    entries: Vec<AppEntry>,
}

impl AppRegistry {
    /// Builds catalogues, `variants` trace variants and their session
    /// preps for every distinct name in `apps` (duplicates collapse). The
    /// `toy` app gets short synthetic traces (`4 + v % 5` activations of a
    /// seeded pattern — sessions cheap enough to churn by the tens of
    /// thousands); every other app (builtin or manifest-sourced) replays
    /// the paper's video model reseeded per variant, truncated to
    /// `max_blocks` activations so a session stays session-sized.
    ///
    /// # Errors
    ///
    /// [`RegistryError`] on an unknown app name or a failed build.
    pub fn new(
        params: &ArchParams,
        apps: &[&str],
        variants: usize,
        seed: u64,
        max_blocks: usize,
    ) -> Result<Self, RegistryError> {
        let variants = variants.max(1);
        let mut entries: Vec<AppEntry> = Vec::new();
        for &name in apps {
            if entries.iter().any(|e| e.name == name) {
                continue;
            }
            // Builtin names and manifest paths resolve alike (see
            // `mrts-ingest`).
            let app = mrts_ingest::model(name)
                .map_err(|e| RegistryError::UnknownApp(format!("{name}: {e}")))?;
            let catalog = app
                .application()
                .build_catalog(params.clone(), None)
                .map_err(|e| RegistryError::Catalog(e.to_string()))?;
            let kernels = app.application().kernel_count();
            let mut traces = Vec::with_capacity(variants);
            for v in 0..variants {
                let trace = if name == "toy" {
                    let patterns: Vec<Pattern> =
                        (0..kernels).map(|k| variant_pattern(seed, v, k)).collect();
                    synthetic_trace(&app, &patterns, 4 + v % 5)
                } else {
                    let full = TraceBuilder::new(&app)
                        .video(VideoModel::paper_default(seed.wrapping_add(v as u64)))
                        .build();
                    let cut = full.len().min(max_blocks.max(1));
                    Trace::new(
                        format!("{name}@fleet-v{v}"),
                        full.activations()[..cut].to_vec(),
                    )
                };
                traces.push(trace);
            }
            let mut preps = Vec::with_capacity(variants);
            for trace in &traces {
                let spec = TenantSpec::new(name, &catalog, trace);
                preps.push(prep_session(params, &spec).map_err(RegistryError::Prep)?);
            }
            entries.push(AppEntry {
                name: name.to_owned(),
                catalog,
                traces,
                preps,
            });
        }
        Ok(AppRegistry { entries })
    }

    /// Index of app `name`, if registered.
    #[must_use]
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name)
    }

    /// Registered app names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// The app's display name.
    #[must_use]
    pub fn name(&self, app: usize) -> &str {
        &self.entries[app].name
    }

    /// The app's ISE catalogue.
    #[must_use]
    pub fn catalog(&self, app: usize) -> &IseCatalog {
        &self.entries[app].catalog
    }

    /// Trace variants available for `app`.
    #[must_use]
    pub(crate) fn variant_count(&self, app: usize) -> usize {
        self.entries[app].traces.len()
    }

    /// The app's variant-`v` trace.
    #[must_use]
    pub fn trace(&self, app: usize, v: usize) -> &Trace {
        &self.entries[app].traces[v]
    }

    /// The precomputed session prep of the app's variant-`v` trace.
    #[must_use]
    pub fn prep(&self, app: usize, v: usize) -> &TenantPrep {
        &self.entries[app].preps[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_deterministic_variants() {
        let params = ArchParams::default();
        let a = AppRegistry::new(&params, &["toy", "toy"], 3, 7, 40).unwrap();
        assert_eq!(a.names(), vec!["toy"], "duplicates collapse");
        assert_eq!(a.variant_count(0), 3);
        let b = AppRegistry::new(&params, &["toy"], 3, 7, 40).unwrap();
        for v in 0..3 {
            assert_eq!(
                a.trace(0, v).activations().len(),
                b.trace(0, v).activations().len()
            );
            assert_eq!(
                a.prep(0, v).risc_baseline,
                b.prep(0, v).risc_baseline,
                "variant {v} prep must be seed-deterministic"
            );
        }
        assert!(
            (0..3).any(|v| a.prep(0, v).risc_baseline != a.prep(0, 0).risc_baseline)
                || a.trace(0, 1).len() != a.trace(0, 0).len(),
            "variants should actually differ"
        );
        assert!(AppRegistry::new(&params, &["bogus"], 1, 1, 10).is_err());
    }
}
