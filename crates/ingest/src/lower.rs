//! The pipeline back-end: manifest IR → [`Application`] (+ catalogue).
//!
//! Lowering builds the same `Application` a hand-written model would;
//! catalogue derivation itself stays in
//! [`Application::build_catalog`] — that *is* the compile-time toolchain
//! stand-in — so FG/CG/MG variant enumeration has exactly one home.

use mrts_arch::{ArchParams, Resources};
use mrts_ise::datapath::{DataPathGraph, NodeRef};
use mrts_ise::{BlockId, IseCatalog, KernelId, KernelSpec};
use mrts_workload::{Application, FunctionalBlock};

use crate::manifest::{Manifest, NodeManifest};
use crate::passes::{self, ClusterInfo, DceStats};
use crate::IngestError;

/// The product of a full pipeline run.
#[derive(Debug)]
pub struct Lowered {
    /// The manifest after normalization and DCE (the canonical IR).
    pub manifest: Manifest,
    /// The lowered application.
    pub app: Application,
    /// Pass 2's summary.
    pub dce: DceStats,
    /// Pass 3's per-kernel candidate-ISE clusters.
    pub clusters: Vec<ClusterInfo>,
}

impl Lowered {
    /// Pass 4: derives the ISE catalogue for `params` within `budget`.
    ///
    /// # Errors
    ///
    /// Propagates catalogue-construction failures as a pass error.
    pub fn derive_catalog(
        &self,
        params: ArchParams,
        budget: Option<Resources>,
    ) -> Result<IseCatalog, IngestError> {
        self.app
            .build_catalog(params, budget)
            .map_err(|e| IngestError::at("catalogue", e.to_string()))
    }
}

/// Runs passes 1–3 and lowers the manifest to an [`Application`].
///
/// # Errors
///
/// [`IngestError::Pass`] from validation or graph construction, with the
/// offending field's path.
pub fn lower(manifest: &Manifest) -> Result<Lowered, IngestError> {
    passes::validate(manifest)?;
    let mut m = manifest.clone();
    let dce = passes::dce(&mut m);
    let clusters = passes::cluster(&m);

    let mut specs = Vec::with_capacity(m.kernels.len());
    for (i, k) in m.kernels.iter().enumerate() {
        let mut spec = KernelSpec::new(k.name.as_str()).overhead_cycles(k.overhead);
        for (d, dp) in k.data_paths.iter().enumerate() {
            let path = format!("kernels[{i}].data_paths[{d}]");
            let mut b = DataPathGraph::builder(dp.name.as_str());
            let mut refs: Vec<NodeRef> = Vec::with_capacity(dp.nodes.len());
            for node in &dp.nodes {
                let r = match node {
                    NodeManifest::Input => b.input(),
                    NodeManifest::Op { kind, operands } => {
                        let ops: Vec<NodeRef> = operands.iter().map(|o| refs[*o]).collect();
                        b.op(*kind, &ops)
                    }
                };
                refs.push(r);
            }
            let graph = b
                .finish()
                .map_err(|e| IngestError::at(path, format!("invalid data path: {e:?}")))?;
            spec = spec.data_path(graph, dp.calls);
        }
        specs.push(spec);
    }

    let kernel_id = |name: &str| -> KernelId {
        let idx = m
            .kernels
            .iter()
            .position(|k| k.name == name)
            .expect("validated kernel reference");
        KernelId(idx as u16)
    };
    let blocks = m
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| FunctionalBlock {
            id: BlockId(i as u16),
            name: b.name.clone(),
            kernels: b.kernels.iter().map(|n| kernel_id(n)).collect(),
        })
        .collect();

    let app = Application::new(m.name.clone(), specs, blocks);
    Ok(Lowered {
        manifest: m,
        app,
        dce,
        clusters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;

    #[test]
    fn every_builtin_lowers_with_monotone_tradeoffs() {
        for name in builtin::BUILTIN_APPS {
            let m = builtin::load(name).expect("builtin loads");
            let lowered = lower(&m).expect("builtin lowers");
            assert_eq!(lowered.manifest, m, "{name}: DCE must be identity");
            let catalog = lowered
                .derive_catalog(ArchParams::default(), None)
                .expect("catalogue derives");
            assert_eq!(catalog.kernels().len(), m.kernels.len());
            for k in 0..m.kernels.len() {
                let points = passes::tradeoff_points(&catalog, KernelId(k as u16));
                for w in points.windows(2) {
                    assert!(w[1].area > w[0].area, "{name}: area strictly increases");
                    assert!(
                        w[1].latency < w[0].latency,
                        "{name}: latency strictly decreases"
                    );
                }
            }
        }
    }

    #[test]
    fn lowering_rejects_invalid_manifests() {
        let mut m = builtin::load("toy").expect("toy loads");
        m.blocks.clear();
        assert!(lower(&m).is_err());
    }
}
