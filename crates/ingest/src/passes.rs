//! The pipeline's middle-end: validation, dead-op elimination and kernel
//! clustering, plus the trade-off-point derivation over a built catalogue.
//!
//! Pass contracts (pinned by tests here and in `tests/ingest_properties.rs`):
//!
//! * [`validate`] — rejects anything the lowering would panic on (unknown
//!   kernel references, bad arities, forward operand references, bad
//!   output indices); accepts exactly the manifests [`crate::lower::lower`]
//!   can lower. Errors are field-qualified.
//! * [`dce`] — removes op nodes not backward-reachable from the declared
//!   outputs. Inputs are never removed (they are interface, not work).
//!   With no declared outputs every sink op counts as live, which makes
//!   the pass the *identity* — so the builtin manifests, which declare no
//!   outputs, lower every op they list. With declared outputs, removing
//!   the dead ops is exactly what keeps a polluted manifest's `RunStats`
//!   equal to its clean twin's.
//! * [`cluster`] — groups each kernel's data paths into a candidate ISE
//!   and derives its grain affinity from the op mix; purely analytical
//!   (never changes the IR), feeds `mrts-cli ingest --check` and the
//!   catalogue summary.
//! * [`tradeoff_points`] — projects a kernel's Pareto variants onto a
//!   monotone area-latency curve: points strictly increase in area and
//!   strictly decrease in latency.

use mrts_arch::Cycles;
use mrts_ise::{IseCatalog, KernelId};

use crate::manifest::{Manifest, NodeManifest};
use crate::IngestError;

/// Validates a manifest: pass 1 of the pipeline.
///
/// # Errors
///
/// [`IngestError::Pass`] naming the offending field.
pub fn validate(m: &Manifest) -> Result<(), IngestError> {
    if m.name.is_empty() {
        return Err(IngestError::at("manifest.name", "must not be empty"));
    }
    if m.kernels.is_empty() {
        return Err(IngestError::at(
            "manifest.kernels",
            "need at least one kernel",
        ));
    }
    if m.blocks.is_empty() {
        return Err(IngestError::at(
            "manifest.blocks",
            "need at least one block",
        ));
    }
    for (i, k) in m.kernels.iter().enumerate() {
        let kpath = format!("kernels[{i}]");
        if k.name.is_empty() {
            return Err(IngestError::at(
                format!("{kpath}.name"),
                "must not be empty",
            ));
        }
        if m.kernels.iter().filter(|o| o.name == k.name).count() > 1 {
            return Err(IngestError::at(
                format!("{kpath}.name"),
                format!("duplicate kernel name '{}'", k.name),
            ));
        }
        if k.data_paths.is_empty() {
            return Err(IngestError::at(
                format!("{kpath}.data_paths"),
                "need at least one data path",
            ));
        }
        for (d, dp) in k.data_paths.iter().enumerate() {
            let dpath = format!("{kpath}.data_paths[{d}]");
            if dp.calls == 0 {
                return Err(IngestError::at(
                    format!("{dpath}.calls"),
                    "must be at least 1",
                ));
            }
            let mut op_count = 0usize;
            for (n, node) in dp.nodes.iter().enumerate() {
                if let NodeManifest::Op { kind, operands } = node {
                    op_count += 1;
                    if operands.len() != kind.arity() {
                        return Err(IngestError::at(
                            format!("{dpath}.nodes[{n}]"),
                            format!(
                                "op '{}' takes {} operands, got {}",
                                kind.name(),
                                kind.arity(),
                                operands.len()
                            ),
                        ));
                    }
                    for o in operands {
                        if *o >= n {
                            return Err(IngestError::at(
                                format!("{dpath}.nodes[{n}]"),
                                format!("operand {o} does not reference an earlier node"),
                            ));
                        }
                    }
                }
            }
            if op_count == 0 {
                return Err(IngestError::at(
                    format!("{dpath}.nodes"),
                    "data path needs at least one op",
                ));
            }
            if let Some(outs) = &dp.outputs {
                if outs.is_empty() {
                    return Err(IngestError::at(
                        format!("{dpath}.outputs"),
                        "declared outputs must not be empty",
                    ));
                }
                for (j, o) in outs.iter().enumerate() {
                    match dp.nodes.get(*o) {
                        Some(NodeManifest::Op { .. }) => {}
                        Some(NodeManifest::Input) => {
                            return Err(IngestError::at(
                                format!("{dpath}.outputs[{j}]"),
                                format!("node {o} is an input, not an op"),
                            ))
                        }
                        None => {
                            return Err(IngestError::at(
                                format!("{dpath}.outputs[{j}]"),
                                format!("node index {o} is out of range"),
                            ))
                        }
                    }
                }
            }
        }
    }
    for (i, b) in m.blocks.iter().enumerate() {
        let bpath = format!("blocks[{i}]");
        if b.kernels.is_empty() {
            return Err(IngestError::at(
                format!("{bpath}.kernels"),
                "block needs at least one kernel",
            ));
        }
        for (j, name) in b.kernels.iter().enumerate() {
            if !m.kernels.iter().any(|k| &k.name == name) {
                return Err(IngestError::at(
                    format!("{bpath}.kernels[{j}]"),
                    format!("unknown kernel '{name}'"),
                ));
            }
        }
    }
    Ok(())
}

/// What pass 2 did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DceStats {
    /// Op nodes removed across all data paths.
    pub removed_ops: usize,
}

/// Dead-op elimination: pass 2 of the pipeline. Expects a validated
/// manifest; see the module docs for the liveness contract.
pub fn dce(m: &mut Manifest) -> DceStats {
    let mut stats = DceStats::default();
    for k in &mut m.kernels {
        for dp in &mut k.data_paths {
            let n = dp.nodes.len();
            let mut live = vec![false; n];
            match &dp.outputs {
                Some(outs) => {
                    for &o in outs {
                        live[o] = true;
                    }
                }
                None => {
                    // Every sink op is an output: mark ops nobody consumes.
                    let mut consumed = vec![false; n];
                    for node in &dp.nodes {
                        if let NodeManifest::Op { operands, .. } = node {
                            for &o in operands {
                                consumed[o] = true;
                            }
                        }
                    }
                    for (i, node) in dp.nodes.iter().enumerate() {
                        if matches!(node, NodeManifest::Op { .. }) && !consumed[i] {
                            live[i] = true;
                        }
                    }
                }
            }
            // Backward reachability (operands of live ops are live).
            for i in (0..n).rev() {
                if live[i] {
                    if let NodeManifest::Op { operands, .. } = &dp.nodes[i] {
                        for &o in operands {
                            live[o] = true;
                        }
                    }
                }
            }
            // Inputs are interface: always kept.
            for (i, node) in dp.nodes.iter().enumerate() {
                if matches!(node, NodeManifest::Input) {
                    live[i] = true;
                }
            }
            if live.iter().all(|l| *l) {
                continue;
            }
            // Compact, remapping operand and output indices.
            let mut remap = vec![usize::MAX; n];
            let mut kept = Vec::with_capacity(n);
            for (i, node) in dp.nodes.iter().enumerate() {
                if live[i] {
                    remap[i] = kept.len();
                    kept.push(match node {
                        NodeManifest::Input => NodeManifest::Input,
                        NodeManifest::Op { kind, operands } => NodeManifest::Op {
                            kind: *kind,
                            operands: operands.iter().map(|o| remap[*o]).collect(),
                        },
                    });
                } else {
                    stats.removed_ops += 1;
                }
            }
            dp.nodes = kept;
            if let Some(outs) = &mut dp.outputs {
                for o in outs {
                    *o = remap[*o];
                }
            }
        }
    }
    stats
}

/// One kernel's candidate-ISE cluster, from pass 3.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterInfo {
    /// The kernel's name.
    pub kernel: String,
    /// Data paths whose op mix is mostly bit-level (FG-affine).
    pub fg_paths: usize,
    /// Data paths whose op mix is mostly word-level (CG-affine).
    pub cg_paths: usize,
    /// Total ops across the kernel's data paths.
    pub ops: usize,
    /// Bit-level fraction over all ops, `0.0..=1.0`.
    pub bit_fraction: f64,
}

impl ClusterInfo {
    /// A short affinity label for reports: `FG`, `CG` or `MG`.
    #[must_use]
    pub fn affinity(&self) -> &'static str {
        if self.fg_paths > 0 && self.cg_paths > 0 {
            "MG"
        } else if self.fg_paths > 0 {
            "FG"
        } else {
            "CG"
        }
    }
}

/// Kernel clustering: pass 3. Groups each kernel's data paths into one
/// candidate ISE and characterises its grain affinity.
#[must_use]
pub fn cluster(m: &Manifest) -> Vec<ClusterInfo> {
    m.kernels
        .iter()
        .map(|k| {
            let mut fg_paths = 0;
            let mut cg_paths = 0;
            let mut ops = 0usize;
            let mut bit_ops = 0usize;
            for dp in &k.data_paths {
                let (mut path_ops, mut path_bits) = (0usize, 0usize);
                for node in &dp.nodes {
                    if let NodeManifest::Op { kind, .. } = node {
                        path_ops += 1;
                        if kind.is_bit_level() {
                            path_bits += 1;
                        }
                    }
                }
                if path_bits * 2 >= path_ops {
                    fg_paths += 1;
                } else {
                    cg_paths += 1;
                }
                ops += path_ops;
                bit_ops += path_bits;
            }
            ClusterInfo {
                kernel: k.name.clone(),
                fg_paths,
                cg_paths,
                ops,
                bit_fraction: if ops == 0 {
                    0.0
                } else {
                    bit_ops as f64 / ops as f64
                },
            }
        })
        .collect()
}

/// Area of an ISE variant in PRC-equivalents (one CG-EDPE is modeled as
/// four PRC tiles — the scalarisation the trade-off curve is monotone in).
#[must_use]
fn area_units(r: mrts_arch::Resources) -> u32 {
    4 * u32::from(r.cg()) + u32::from(r.prc())
}

/// One point of a kernel's area-latency trade-off curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TradeoffPoint {
    /// Fabric area in PRC-equivalents (a CG-EDPE counts as four PRCs).
    pub area: u32,
    /// Fully resident execution latency.
    pub latency: Cycles,
    /// CG-EDPEs of the variant.
    pub cg: u16,
    /// PRCs of the variant.
    pub prc: u16,
}

/// Pass 4's summary product: the kernel's Pareto variants projected onto a
/// *monotone* area-latency curve (strictly increasing area, strictly
/// decreasing latency). The zero-area point is the RISC/monoCG fallback.
#[must_use]
pub fn tradeoff_points(catalog: &IseCatalog, kernel: KernelId) -> Vec<TradeoffPoint> {
    let mut variants: Vec<TradeoffPoint> = catalog
        .pareto_ises_of(kernel)
        .into_iter()
        .filter_map(|id| catalog.ise(id).ok())
        .map(|ise| TradeoffPoint {
            area: area_units(ise.resources()),
            latency: ise.full_latency(),
            cg: ise.resources().cg(),
            prc: ise.resources().prc(),
        })
        .collect();
    variants.sort_by_key(|p| (p.area, p.latency));
    let mut points: Vec<TradeoffPoint> = Vec::new();
    for p in variants {
        match points.last() {
            Some(last) if p.area == last.area => {} // keep the faster one
            Some(last) if p.latency >= last.latency => {} // not a trade-off
            _ => points.push(p),
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use mrts_ise::datapath::OpKind;

    #[test]
    fn builtin_manifests_validate_and_dce_is_identity() {
        for name in builtin::BUILTIN_APPS {
            let m = builtin::load(name).expect("builtin loads");
            validate(&m).expect("builtin manifest validates");
            let mut dced = m.clone();
            let stats = dce(&mut dced);
            assert_eq!(stats.removed_ops, 0, "{name}: sink-live DCE is identity");
            assert_eq!(dced, m);
        }
    }

    #[test]
    fn dce_removes_only_dead_ops() {
        let mut m = builtin::load("toy").expect("toy loads");
        // Declare the real sink as the only output, then append a dead op.
        let dp = &mut m.kernels[0].data_paths[0];
        let sink = dp.nodes.len() - 1;
        dp.outputs = Some(vec![sink]);
        dp.nodes.push(NodeManifest::Op {
            kind: mrts_ise::datapath::OpKind::Abs,
            operands: vec![0],
        });
        validate(&m).expect("still valid");
        let mut clean = builtin::load("toy").expect("toy loads");
        clean.kernels[0].data_paths[0].outputs = Some(vec![sink]);
        let before = m.clone();
        let stats = dce(&mut m);
        assert_eq!(stats.removed_ops, 1);
        assert_eq!(
            m.kernels[0].data_paths[0].nodes,
            clean.kernels[0].data_paths[0].nodes
        );
        assert_ne!(before, m);
    }

    #[test]
    fn clusters_see_the_expected_grain_mix() {
        let infos = cluster(&builtin::load("h264").expect("h264 loads"));
        assert_eq!(infos.len(), 11);
        let deblock = infos
            .iter()
            .find(|c| c.kernel == "deblock")
            .expect("deblock");
        assert_eq!(deblock.affinity(), "MG", "loop filter mixes both grains");
        let cipher = cluster(&builtin::load("cipher").expect("cipher loads"));
        assert!(cipher.iter().all(|c| c.bit_fraction > 0.5));
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut m = builtin::load("fft").expect("fft loads");
        m.blocks[0].kernels.push("nope".into());
        let err = validate(&m).unwrap_err();
        assert_eq!(
            err.to_string(),
            "blocks[0].kernels[2]: unknown kernel 'nope'"
        );

        let mut m = builtin::load("fft").expect("fft loads");
        if let NodeManifest::Op { operands, .. } = &mut m.kernels[0].data_paths[0].nodes[2] {
            operands.pop();
        }
        assert!(validate(&m).is_err(), "arity mismatch rejected");

        let mut m = builtin::load("fft").expect("fft loads");
        m.kernels[0].data_paths[0].outputs = Some(vec![99]);
        assert!(validate(&m).is_err(), "out-of-range output rejected");
    }

    #[test]
    fn unused_op_kind_is_never_a_problem() {
        // Every OpKind mnemonic parses back (lexer/table coherence).
        for k in OpKind::ALL {
            let text = match k.arity() {
                1 => format!("{} 0", k.name()),
                3 => format!("{} 0 0 0", k.name()),
                _ => format!("{} 0 0", k.name()),
            };
            let node = NodeManifest::parse(&text, "n").expect("mnemonic parses");
            assert_eq!(node.print(), text);
        }
    }
}
