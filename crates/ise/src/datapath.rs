//! Data-path operator graphs.
//!
//! An ISE data path is a small dataflow graph of word-level and bit-level
//! operations (the paper's H.264 deblocking-filter ISEs, for instance,
//! combine a *control-dominant condition data path with bit-level
//! operations* and a *data-dominant filter data path with arithmetic
//! (sub)word-level operations*). The graph is the single source of truth
//! from which the [`mapping`](crate::mapping) estimators derive software,
//! CG-fabric and FG-fabric implementations.
//!
//! Graphs are DAGs by construction: a node may only reference nodes created
//! before it.

use crate::error::IseError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The operation vocabulary of data paths.
///
/// Word-level operations favour the CG fabric; bit-level operations favour
/// the FG fabric. The relative costs per backend are defined in
/// `OpKind::sw_cycles`, [`OpKind::cg_class`] / [`OpKind::cg_emulation_ops`]
/// and `OpKind::fg_levels` / `OpKind::fg_luts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    // ---- word-level (CG-friendly) -------------------------------------
    /// 32-bit addition.
    Add,
    /// 32-bit subtraction.
    Sub,
    /// 32-bit multiplication.
    Mul,
    /// 32-bit division.
    Div,
    /// Left shift by a (possibly dynamic) amount.
    Shl,
    /// Right shift.
    Shr,
    /// Bitwise and (word-level logic; cheap everywhere).
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Minimum of two words.
    Min,
    /// Maximum of two words.
    Max,
    /// Absolute value.
    Abs,
    /// Clip into a range (three operands: value, lo, hi).
    Clip,
    /// Multiply-accumulate (three operands).
    Mac,
    /// Comparison producing a flag word.
    Cmp,
    /// Two-way select (three operands: flag, then, else).
    Select,
    /// Load a word from the scratch-pad.
    Load,
    /// Store a word to the scratch-pad.
    Store,
    // ---- bit/byte-level (FG-friendly) ----------------------------------
    /// Extract an arbitrary bit field.
    BitExtract,
    /// Insert a bit field.
    BitInsert,
    /// Arbitrary static bit permutation / shuffling.
    BitShuffle,
    /// Pack several sub-word values into one word.
    Pack,
    /// Unpack a word into sub-word values.
    Unpack,
    /// Population count.
    PopCount,
    /// Parity of a word.
    Parity,
    /// Small table lookup (LUT-style substitution).
    LutLookup,
    /// Apply an irregular bit mask.
    Mask,
}

/// How an operation schedules on the CG fabric's ALUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CgClass {
    /// One simple ALU instruction (1 CG cycle).
    Simple,
    /// The two-cycle multiplier.
    Multiply,
    /// The ten-cycle divider.
    Divide,
    /// Load/store through the shared unit.
    LoadStore,
    /// No native support: emulated by a sequence of simple instructions
    /// (count given by [`OpKind::cg_emulation_ops`]).
    Emulated,
}

impl OpKind {
    /// All operations, for enumeration in tests and generators.
    pub const ALL: [OpKind; 27] = [
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::Div,
        OpKind::Shl,
        OpKind::Shr,
        OpKind::And,
        OpKind::Or,
        OpKind::Xor,
        OpKind::Min,
        OpKind::Max,
        OpKind::Abs,
        OpKind::Clip,
        OpKind::Mac,
        OpKind::Cmp,
        OpKind::Select,
        OpKind::Load,
        OpKind::Store,
        OpKind::BitExtract,
        OpKind::BitInsert,
        OpKind::BitShuffle,
        OpKind::Pack,
        OpKind::Unpack,
        OpKind::PopCount,
        OpKind::Parity,
        OpKind::LutLookup,
        OpKind::Mask,
    ];

    /// Operand count expected by this operation.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            OpKind::Abs
            | OpKind::Load
            | OpKind::Unpack
            | OpKind::PopCount
            | OpKind::Parity
            | OpKind::LutLookup
            | OpKind::BitExtract => 1,
            OpKind::Clip | OpKind::Mac | OpKind::Select | OpKind::BitInsert => 3,
            _ => 2,
        }
    }

    /// Whether this is a bit/byte-level operation (control-dominant flavour,
    /// at home on the FG fabric).
    #[must_use]
    pub fn is_bit_level(self) -> bool {
        matches!(
            self,
            OpKind::BitExtract
                | OpKind::BitInsert
                | OpKind::BitShuffle
                | OpKind::Pack
                | OpKind::Unpack
                | OpKind::PopCount
                | OpKind::Parity
                | OpKind::LutLookup
                | OpKind::Mask
        )
    }

    /// Cycles the RISC core needs for this operation in plain software
    /// (RISC-mode execution). Bit-level operations are expensive on a plain
    /// SPARC V8 pipeline (shift/mask/merge sequences).
    #[must_use]
    pub(crate) fn sw_cycles(self) -> u64 {
        match self {
            OpKind::Add
            | OpKind::Sub
            | OpKind::Shl
            | OpKind::Shr
            | OpKind::And
            | OpKind::Or
            | OpKind::Xor
            | OpKind::Cmp => 1,
            OpKind::Min | OpKind::Max | OpKind::Abs | OpKind::Select => 2,
            OpKind::Load | OpKind::Store => 2,
            OpKind::Clip => 4,
            OpKind::Mul => 4,
            OpKind::Mac => 5,
            OpKind::Div => 20,
            OpKind::Pack | OpKind::Unpack | OpKind::Mask => 6,
            OpKind::BitExtract | OpKind::BitInsert => 8,
            OpKind::PopCount | OpKind::Parity => 12,
            OpKind::BitShuffle | OpKind::LutLookup => 16,
        }
    }

    /// CG scheduling class.
    #[must_use]
    pub fn cg_class(self) -> CgClass {
        match self {
            OpKind::Mul => CgClass::Multiply,
            OpKind::Mac => CgClass::Multiply,
            OpKind::Div => CgClass::Divide,
            OpKind::Load | OpKind::Store => CgClass::LoadStore,
            // A range clip has no single-instruction form on the EDPE ALUs:
            // it expands to a min/max pair.
            OpKind::Clip => CgClass::Emulated,
            k if k.is_bit_level() => CgClass::Emulated,
            _ => CgClass::Simple,
        }
    }

    /// For [`CgClass::Emulated`] operations: how many simple CG instructions
    /// the emulation sequence needs. Zero for natively supported operations.
    #[must_use]
    pub fn cg_emulation_ops(self) -> u64 {
        match self {
            OpKind::Clip => 2,
            OpKind::Pack | OpKind::Unpack | OpKind::Mask => 3,
            OpKind::BitExtract | OpKind::BitInsert => 4,
            OpKind::PopCount | OpKind::Parity => 6,
            OpKind::BitShuffle | OpKind::LutLookup => 8,
            _ => 0,
        }
    }

    /// Logic levels this operation adds on the FG fabric's critical path
    /// (one level ≈ one FG cycle when pipelined with II=1). Word-level
    /// arithmetic is comparatively costly on LUT fabric; bit-level
    /// operations are nearly free routing.
    #[must_use]
    pub(crate) fn fg_levels(self) -> u64 {
        match self {
            OpKind::BitShuffle | OpKind::Mask | OpKind::Pack | OpKind::Unpack => 1,
            OpKind::BitExtract | OpKind::BitInsert | OpKind::Parity => 1,
            OpKind::LutLookup | OpKind::PopCount => 1,
            OpKind::And | OpKind::Or | OpKind::Xor | OpKind::Select => 1,
            OpKind::Add | OpKind::Sub | OpKind::Cmp | OpKind::Min | OpKind::Max | OpKind::Abs => 2,
            OpKind::Shl | OpKind::Shr | OpKind::Clip => 2,
            OpKind::Load | OpKind::Store => 1,
            OpKind::Mul | OpKind::Mac => 4,
            OpKind::Div => 16,
        }
    }

    /// The operation's contribution to the data path's initiation interval
    /// on the FG fabric (FG cycles between successive invocations).
    /// Bit-level logic and pipelined carry chains stream every cycle;
    /// multipliers and dividers are iterative (LUT-only fabric, no DSP
    /// blocks) and must be reused across cycles. This is why FG ISEs have
    /// the highest asymptotic speedup in the paper's Fig. 1 — except for
    /// multiply/divide-heavy word processing, which is the CG fabric's
    /// home turf.
    #[must_use]
    pub(crate) fn fg_initiation_interval(self) -> u64 {
        match self {
            OpKind::Mul | OpKind::Mac => 4,
            OpKind::Div => 16,
            _ => 1,
        }
    }

    /// LUT area this operation occupies on the FG fabric.
    #[must_use]
    pub(crate) fn fg_luts(self) -> u64 {
        match self {
            OpKind::And | OpKind::Or | OpKind::Xor | OpKind::Mask => 16,
            OpKind::BitShuffle | OpKind::Pack | OpKind::Unpack => 8,
            OpKind::BitExtract | OpKind::BitInsert => 24,
            OpKind::Parity | OpKind::PopCount => 40,
            OpKind::LutLookup => 64,
            OpKind::Select | OpKind::Cmp => 40,
            OpKind::Add | OpKind::Sub | OpKind::Min | OpKind::Max | OpKind::Abs => 64,
            OpKind::Shl | OpKind::Shr => 96,
            OpKind::Clip => 120,
            OpKind::Load | OpKind::Store => 32,
            OpKind::Mul | OpKind::Mac => 1_400,
            OpKind::Div => 3_600,
        }
    }

    /// A short mnemonic.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Shl => "shl",
            OpKind::Shr => "shr",
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Xor => "xor",
            OpKind::Min => "min",
            OpKind::Max => "max",
            OpKind::Abs => "abs",
            OpKind::Clip => "clip",
            OpKind::Mac => "mac",
            OpKind::Cmp => "cmp",
            OpKind::Select => "sel",
            OpKind::Load => "ld",
            OpKind::Store => "st",
            OpKind::BitExtract => "bext",
            OpKind::BitInsert => "bins",
            OpKind::BitShuffle => "bshuf",
            OpKind::Pack => "pack",
            OpKind::Unpack => "unpack",
            OpKind::PopCount => "popcnt",
            OpKind::Parity => "parity",
            OpKind::LutLookup => "lut",
            OpKind::Mask => "mask",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Reference to a node inside one graph (an input or an operation result).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeRef(u32);

impl NodeRef {
    /// The node's index in creation order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of a data-path graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Node {
    /// An external input value.
    Input,
    /// An operation over earlier nodes.
    Op {
        /// The operation.
        kind: OpKind,
        /// Operand references (must point at earlier nodes).
        operands: Vec<NodeRef>,
    },
}

/// A validated data-path operator graph.
///
/// Construct via [`DataPathGraph::builder`].
///
/// # Example
///
/// ```
/// use mrts_ise::datapath::{DataPathGraph, OpKind};
///
/// # fn main() -> Result<(), mrts_ise::IseError> {
/// let mut b = DataPathGraph::builder("clip_diff");
/// let p = b.input();
/// let q = b.input();
/// let d = b.op(OpKind::Sub, &[p, q]);
/// let a = b.op(OpKind::Abs, &[d]);
/// let lo = b.input();
/// let hi = b.input();
/// let c = b.op(OpKind::Clip, &[a, lo, hi]);
/// let g = b.finish()?;
/// assert_eq!(g.op_count(), 3);
/// assert_eq!(g.depth(), 3);
/// # let _ = c;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataPathGraph {
    name: String,
    nodes: Vec<Node>,
}

impl DataPathGraph {
    /// Starts building a graph with the given diagnostic name.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> DataPathGraphBuilder {
        DataPathGraphBuilder {
            name: name.into(),
            nodes: Vec::new(),
            error: None,
        }
    }

    /// The graph's diagnostic name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes in creation (topological) order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of operation nodes (inputs excluded).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Op { .. }))
            .count()
    }

    /// Number of input nodes.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.nodes.len() - self.op_count()
    }

    /// Iterates over the operations with their operand references.
    pub fn ops(&self) -> impl Iterator<Item = (OpKind, &[NodeRef])> {
        self.nodes.iter().filter_map(|n| match n {
            Node::Op { kind, operands } => Some((*kind, operands.as_slice())),
            Node::Input => None,
        })
    }

    /// Critical-path depth in operation nodes (inputs are depth 0).
    #[must_use]
    pub fn depth(&self) -> u64 {
        let mut depth = vec![0u64; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let Node::Op { operands, .. } = n {
                let d = operands.iter().map(|r| depth[r.index()]).max().unwrap_or(0);
                depth[i] = d + 1;
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Weighted critical-path depth, where each node contributes
    /// `weight(kind)` levels. Used by the FG mapping estimator.
    #[must_use]
    pub(crate) fn weighted_depth(&self, weight: impl Fn(OpKind) -> u64) -> u64 {
        let mut depth = vec![0u64; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let Node::Op { kind, operands } = n {
                let d = operands.iter().map(|r| depth[r.index()]).max().unwrap_or(0);
                depth[i] = d + weight(*kind);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// Incremental builder for [`DataPathGraph`] (errors are deferred to
/// [`DataPathGraphBuilder::finish`] so construction code stays linear).
#[derive(Debug)]
pub struct DataPathGraphBuilder {
    name: String,
    nodes: Vec<Node>,
    error: Option<IseError>,
}

impl DataPathGraphBuilder {
    /// Adds an external input and returns its reference.
    pub fn input(&mut self) -> NodeRef {
        self.nodes.push(Node::Input);
        NodeRef((self.nodes.len() - 1) as u32)
    }

    /// Adds an operation node over earlier nodes and returns its reference.
    ///
    /// Arity and operand validity are checked; the first violation is
    /// reported by [`finish`](Self::finish).
    pub fn op(&mut self, kind: OpKind, operands: &[NodeRef]) -> NodeRef {
        if self.error.is_none() {
            if operands.len() != kind.arity() {
                self.error = Some(IseError::BadArity {
                    graph: self.name.clone(),
                    op: kind.name(),
                    expected: kind.arity(),
                    got: operands.len(),
                });
            } else if let Some(bad) = operands.iter().find(|r| r.index() >= self.nodes.len()) {
                self.error = Some(IseError::DanglingOperand {
                    graph: self.name.clone(),
                    node: bad.index(),
                });
            }
        }
        self.nodes.push(Node::Op {
            kind,
            operands: operands.to_vec(),
        });
        NodeRef((self.nodes.len() - 1) as u32)
    }

    /// Validates and returns the finished graph.
    ///
    /// # Errors
    ///
    /// Returns the first construction error ([`IseError::BadArity`],
    /// [`IseError::DanglingOperand`]) or [`IseError::InvalidGraph`] if the
    /// graph has no operations.
    pub fn finish(self) -> Result<DataPathGraph, IseError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let g = DataPathGraph {
            name: self.name,
            nodes: self.nodes,
        };
        if g.op_count() == 0 {
            return Err(IseError::InvalidGraph(format!(
                "graph '{}' has no operations",
                g.name
            )));
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diamond() -> DataPathGraph {
        // (a-b) and (a+b) joined by max.
        let mut b = DataPathGraph::builder("diamond");
        let a = b.input();
        let c = b.input();
        let d = b.op(OpKind::Sub, &[a, c]);
        let s = b.op(OpKind::Add, &[a, c]);
        let _m = b.op(OpKind::Max, &[d, s]);
        b.finish().expect("valid")
    }

    #[test]
    fn counting_and_depth() {
        let g = diamond();
        assert_eq!(g.op_count(), 3);
        assert_eq!(g.input_count(), 2);
        assert_eq!(g.depth(), 2);
    }

    #[test]
    fn weighted_depth_respects_weights() {
        let g = diamond();
        // Every op weighs 2 -> depth 4.
        assert_eq!(g.weighted_depth(|_| 2), 4);
        // Make Max free: the path is sub/add only -> depth 2.
        assert_eq!(
            g.weighted_depth(|k| if k == OpKind::Max { 0 } else { 2 }),
            4 - 2
        );
    }

    #[test]
    fn bad_arity_detected_at_finish() {
        let mut b = DataPathGraph::builder("bad");
        let a = b.input();
        let _ = b.op(OpKind::Add, &[a]); // add needs 2 operands
        assert!(matches!(b.finish(), Err(IseError::BadArity { .. })));
    }

    #[test]
    fn empty_graph_rejected() {
        let mut b = DataPathGraph::builder("empty");
        let _ = b.input();
        assert!(matches!(b.finish(), Err(IseError::InvalidGraph(_))));
    }

    #[test]
    fn bit_level_ops_are_classified() {
        assert!(OpKind::BitShuffle.is_bit_level());
        assert!(!OpKind::Add.is_bit_level());
    }

    #[test]
    fn every_op_has_consistent_tables() {
        for op in OpKind::ALL {
            assert!(op.sw_cycles() > 0, "{op} has zero sw cost");
            assert!(op.fg_levels() > 0, "{op} has zero fg levels");
            assert!(op.fg_luts() > 0, "{op} has zero fg area");
            assert!(op.arity() >= 1 && op.arity() <= 3);
            // Emulated ops must declare their emulation length; native ops
            // must not.
            let emulated = matches!(op.cg_class(), CgClass::Emulated);
            assert_eq!(emulated, op.cg_emulation_ops() > 0, "{op}");
            // Every bit-level op is CG-emulated (plus the word-level clip).
            if op.is_bit_level() {
                assert!(emulated, "{op}");
            }
        }
    }

    #[test]
    fn bit_ops_cheap_on_fg_costly_in_sw() {
        // The economic asymmetry the whole paper rests on.
        for op in OpKind::ALL.into_iter().filter(|o| o.is_bit_level()) {
            assert!(op.fg_levels() <= 2, "{op} should be cheap on FG");
            assert!(op.sw_cycles() >= 6, "{op} should be costly in software");
        }
        assert!(OpKind::Mul.fg_levels() > OpKind::BitShuffle.fg_levels());
        assert!(OpKind::Div.fg_luts() > OpKind::Add.fg_luts());
    }

    proptest! {
        /// Random linear chains: depth equals op count, op_count tracks pushes.
        #[test]
        fn chain_depth_equals_length(len in 1usize..40) {
            let mut b = DataPathGraph::builder("chain");
            let mut cur = b.input();
            for _ in 0..len {
                cur = b.op(OpKind::Abs, &[cur]);
            }
            let g = b.finish().unwrap();
            prop_assert_eq!(g.op_count(), len);
            prop_assert_eq!(g.depth(), len as u64);
        }

        /// Weighted depth with unit weights equals plain depth.
        #[test]
        fn unit_weight_matches_depth(ops in 1usize..30) {
            let mut b = DataPathGraph::builder("wide");
            let mut last = b.input();
            for i in 0..ops {
                let inp = b.input();
                last = if i % 2 == 0 {
                    b.op(OpKind::Add, &[last, inp])
                } else {
                    b.op(OpKind::Xor, &[last, inp])
                };
            }
            let g = b.finish().unwrap();
            prop_assert_eq!(g.weighted_depth(|_| 1), g.depth());
        }
    }
}
