//! The manifest intermediate representation and its JSON front-end.
//!
//! A manifest is the external, checked-in form of one application: kernels
//! as data-path op lists, functional blocks, and per-kernel execution-
//! frequency rules (see [`crate::rate`]). The parser is a real front-end:
//! every rejection carries the dotted/indexed path of the offending field
//! (`kernels[1].data_paths[0].nodes[3]: …`), and serialization emits a
//! canonical form such that `parse ∘ print` and `print ∘ parse` are both
//! identity — the round-trip property `tests/ingest_properties.rs` pins.
//!
//! ```json
//! {
//!   "name": "stream_cipher",
//!   "kernels": [
//!     { "name": "keysched", "overhead": 40, "gap": 250,
//!       "rate": "trunc(mul(64.0, add(0.4, mul(0.6, edge))))",
//!       "data_paths": [
//!         { "name": "keysched", "calls": 8,
//!           "nodes": ["in", "in", "bshuf 0 1", "mask 2 1", "pack 3 1"] }
//!       ] }
//!   ],
//!   "blocks": [ { "name": "encrypt", "kernels": ["keysched"] } ]
//! }
//! ```

use mrts_ise::datapath::OpKind;
use serde::Value;

use crate::rate::RateRule;
use crate::IngestError;

/// One node of a data path, in creation order: `"in"` or
/// `"<mnemonic> <operand-index>…"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeManifest {
    /// An external input.
    Input,
    /// An operation over earlier nodes.
    Op {
        /// The operation.
        kind: OpKind,
        /// Operand node indices (must be smaller than this node's index).
        operands: Vec<usize>,
    },
}

impl NodeManifest {
    /// Renders the node in its concrete `"in"` / `"sub 0 1"` syntax.
    #[must_use]
    pub fn print(&self) -> String {
        match self {
            NodeManifest::Input => "in".to_owned(),
            NodeManifest::Op { kind, operands } => {
                let mut s = kind.name().to_owned();
                for o in operands {
                    s.push(' ');
                    s.push_str(&o.to_string());
                }
                s
            }
        }
    }

    /// Parses the concrete syntax; `path` qualifies errors.
    ///
    /// # Errors
    ///
    /// [`IngestError::Pass`] on an unknown mnemonic or malformed index.
    pub fn parse(text: &str, path: &str) -> Result<Self, IngestError> {
        let mut parts = text.split_whitespace();
        let head = parts
            .next()
            .ok_or_else(|| IngestError::at(path, "empty node"))?;
        if head == "in" {
            if parts.next().is_some() {
                return Err(IngestError::at(path, "'in' takes no operands"));
            }
            return Ok(NodeManifest::Input);
        }
        let kind = *OpKind::ALL
            .iter()
            .find(|k| k.name() == head)
            .ok_or_else(|| IngestError::at(path, format!("unknown op '{head}'")))?;
        let mut operands = Vec::new();
        for p in parts {
            operands.push(p.parse::<usize>().map_err(|_| {
                IngestError::at(path, format!("bad operand index '{p}' for op '{head}'"))
            })?);
        }
        Ok(NodeManifest::Op { kind, operands })
    }
}

/// One data path of a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPathManifest {
    /// Graph name (diagnostics, DOT output).
    pub name: String,
    /// Invocations per kernel execution.
    pub calls: u32,
    /// Nodes in creation order.
    pub nodes: Vec<NodeManifest>,
    /// Live output nodes. `None` means every sink op is an output (so
    /// dead-op elimination is the identity); `Some` enables real DCE.
    pub outputs: Option<Vec<usize>>,
}

/// One kernel: overhead, execution-gap, rate rule and data paths.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelManifest {
    /// Kernel name.
    pub name: String,
    /// Software overhead cycles per execution (`KernelSpec::overhead`).
    pub overhead: u64,
    /// Mean gap between consecutive executions (the `tbᵢ` generator).
    pub gap: u64,
    /// Execution-frequency rule.
    pub rate: RateRule,
    /// The kernel's data paths.
    pub data_paths: Vec<DataPathManifest>,
}

/// One functional block, referencing kernels by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockManifest {
    /// Block name.
    pub name: String,
    /// Names of the kernels the block executes, in order.
    pub kernels: Vec<String>,
}

/// A whole workload manifest — the pipeline's input IR.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Application name (becomes `Application::name` and the trace prefix).
    pub name: String,
    /// Kernels in `KernelId` order.
    pub kernels: Vec<KernelManifest>,
    /// Functional blocks in `BlockId` order.
    pub blocks: Vec<BlockManifest>,
}

fn str_field(v: &Value, name: &str, path: &str) -> Result<String, IngestError> {
    match v.get_field(name) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(IngestError::at(
            format!("{path}.{name}"),
            format!("expected a string, got {}", other.kind()),
        )),
        None => Err(IngestError::at(path, format!("missing field '{name}'"))),
    }
}

fn u64_field(v: &Value, name: &str, path: &str) -> Result<u64, IngestError> {
    match v.get_field(name) {
        Some(f) => f.as_u64().ok_or_else(|| {
            IngestError::at(
                format!("{path}.{name}"),
                format!("expected an unsigned integer, got {}", f.kind()),
            )
        }),
        None => Err(IngestError::at(path, format!("missing field '{name}'"))),
    }
}

fn seq_field<'a>(v: &'a Value, name: &str, path: &str) -> Result<&'a [Value], IngestError> {
    match v.get_field(name) {
        Some(f) => f.as_seq().ok_or_else(|| {
            IngestError::at(
                format!("{path}.{name}"),
                format!("expected a sequence, got {}", f.kind()),
            )
        }),
        None => Err(IngestError::at(path, format!("missing field '{name}'"))),
    }
}

impl Manifest {
    /// Parses a manifest from JSON text (the pipeline front-end).
    ///
    /// # Errors
    ///
    /// [`IngestError::Syntax`] if the text is not JSON at all, otherwise
    /// [`IngestError::Pass`] with the offending field's path.
    pub fn from_json(text: &str) -> Result<Self, IngestError> {
        let v: Value =
            serde_json::from_str(text).map_err(|e| IngestError::Syntax(e.to_string()))?;
        let name = str_field(&v, "name", "manifest")?;
        let mut kernels = Vec::new();
        for (i, kv) in seq_field(&v, "kernels", "manifest")?.iter().enumerate() {
            kernels.push(Self::parse_kernel(kv, &format!("kernels[{i}]"))?);
        }
        let mut blocks = Vec::new();
        for (i, bv) in seq_field(&v, "blocks", "manifest")?.iter().enumerate() {
            let path = format!("blocks[{i}]");
            let bname = str_field(bv, "name", &path)?;
            let mut refs = Vec::new();
            for (j, kn) in seq_field(bv, "kernels", &path)?.iter().enumerate() {
                match kn {
                    Value::Str(s) => refs.push(s.clone()),
                    other => {
                        return Err(IngestError::at(
                            format!("{path}.kernels[{j}]"),
                            format!("expected a kernel name, got {}", other.kind()),
                        ))
                    }
                }
            }
            blocks.push(BlockManifest {
                name: bname,
                kernels: refs,
            });
        }
        Ok(Manifest {
            name,
            kernels,
            blocks,
        })
    }

    fn parse_kernel(v: &Value, path: &str) -> Result<KernelManifest, IngestError> {
        let name = str_field(v, "name", path)?;
        let overhead = u64_field(v, "overhead", path)?;
        let gap = u64_field(v, "gap", path)?;
        let rate = RateRule::parse(&str_field(v, "rate", path)?, &format!("{path}.rate"))?;
        let mut data_paths = Vec::new();
        for (i, dv) in seq_field(v, "data_paths", path)?.iter().enumerate() {
            let dpath = format!("{path}.data_paths[{i}]");
            let dname = str_field(dv, "name", &dpath)?;
            let calls = u32::try_from(u64_field(dv, "calls", &dpath)?)
                .map_err(|_| IngestError::at(format!("{dpath}.calls"), "does not fit in u32"))?;
            let mut nodes = Vec::new();
            for (j, nv) in seq_field(dv, "nodes", &dpath)?.iter().enumerate() {
                let npath = format!("{dpath}.nodes[{j}]");
                match nv {
                    Value::Str(s) => nodes.push(NodeManifest::parse(s, &npath)?),
                    other => {
                        return Err(IngestError::at(
                            npath,
                            format!("expected a node string, got {}", other.kind()),
                        ))
                    }
                }
            }
            let outputs = match dv.get_field("outputs") {
                None | Some(Value::Null) => None,
                Some(f) => {
                    let seq = f.as_seq().ok_or_else(|| {
                        IngestError::at(
                            format!("{dpath}.outputs"),
                            format!("expected a sequence, got {}", f.kind()),
                        )
                    })?;
                    let mut out = Vec::new();
                    for (j, ov) in seq.iter().enumerate() {
                        out.push(ov.as_u64().map(|n| n as usize).ok_or_else(|| {
                            IngestError::at(
                                format!("{dpath}.outputs[{j}]"),
                                "expected a node index",
                            )
                        })?);
                    }
                    Some(out)
                }
            };
            data_paths.push(DataPathManifest {
                name: dname,
                calls,
                nodes,
                outputs,
            });
        }
        Ok(KernelManifest {
            name,
            overhead,
            gap,
            rate,
            data_paths,
        })
    }

    /// Builds the canonical [`Value`] tree (field order is fixed).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                let dps = k
                    .data_paths
                    .iter()
                    .map(|d| {
                        let mut fields = vec![
                            ("name".to_owned(), Value::Str(d.name.clone())),
                            ("calls".to_owned(), Value::U64(u64::from(d.calls))),
                            (
                                "nodes".to_owned(),
                                Value::Seq(d.nodes.iter().map(|n| Value::Str(n.print())).collect()),
                            ),
                        ];
                        if let Some(outs) = &d.outputs {
                            fields.push((
                                "outputs".to_owned(),
                                Value::Seq(outs.iter().map(|o| Value::U64(*o as u64)).collect()),
                            ));
                        }
                        Value::Map(fields)
                    })
                    .collect();
                Value::Map(vec![
                    ("name".to_owned(), Value::Str(k.name.clone())),
                    ("overhead".to_owned(), Value::U64(k.overhead)),
                    ("gap".to_owned(), Value::U64(k.gap)),
                    ("rate".to_owned(), Value::Str(k.rate.print())),
                    ("data_paths".to_owned(), Value::Seq(dps)),
                ])
            })
            .collect();
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                Value::Map(vec![
                    ("name".to_owned(), Value::Str(b.name.clone())),
                    (
                        "kernels".to_owned(),
                        Value::Seq(b.kernels.iter().cloned().map(Value::Str).collect()),
                    ),
                ])
            })
            .collect();
        Value::Map(vec![
            ("name".to_owned(), Value::Str(self.name.clone())),
            ("kernels".to_owned(), Value::Seq(kernels)),
            ("blocks".to_owned(), Value::Seq(blocks)),
        ])
    }

    /// Renders the canonical JSON form (pretty, trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.to_value()).expect("value encodes");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_syntax_round_trips() {
        for text in ["in", "sub 0 1", "mac 0 1 2", "popcnt 3"] {
            let n = NodeManifest::parse(text, "n").expect("parses");
            assert_eq!(n.print(), text);
        }
        assert!(NodeManifest::parse("frob 0", "n").is_err());
        assert!(NodeManifest::parse("in 0", "n").is_err());
        assert!(NodeManifest::parse("sub x y", "n").is_err());
    }

    #[test]
    fn parse_reports_field_paths() {
        let err =
            Manifest::from_json(r#"{"name": "x", "kernels": [{}], "blocks": []}"#).unwrap_err();
        assert_eq!(err.to_string(), "kernels[0]: missing field 'name'");
        let err = Manifest::from_json("{").unwrap_err();
        assert!(matches!(err, IngestError::Syntax(_)));
    }
}
