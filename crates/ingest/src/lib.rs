//! # mrts-ingest — the workload-ingestion compiler pipeline
//!
//! Every scenario the runtime is evaluated on used to be a hand-built Rust
//! constructor (`workload::h264::h264_application` and friends). This crate
//! turns workload construction into a small compiler:
//!
//! ```text
//!   manifest (JSON)          replayed event spine (JSONL, optional)
//!        │                           │
//!        ▼                           ▼
//!   front-end parse  ──────►  event profile (observed exec shares)
//!        │
//!        ▼
//!   pass 1: validate / normalize      (names, references, arities)
//!   pass 2: dead-op elimination       (on DataPathGraph op lists)
//!   pass 3: kernel clustering         (candidate ISEs, grain affinity)
//!   pass 4: catalogue derivation      (FG/CG/MG variants, monotone
//!        │                             area-latency trade-off points)
//!        ▼
//!   Application + IseCatalog + WorkloadModel (trace-ready)
//! ```
//!
//! The checked-in manifests under `manifests/` are the only definition of
//! the builtin apps: [`builtin`] embeds them and parses them on demand. The
//! hand-built constructors in `mrts-workload` stay as the *oracle*: the
//! manifests lower to byte-identical catalogues, traces and `RunStats`
//! (pinned by the `ingest_goldens` test), and the CLI/fleet/bench layers
//! all obtain their applications through [`fn@model`] so the ingested path
//! is the production path.
//!
//! ## Entry points
//!
//! * [`Manifest::from_json`] — front-end parse with field-qualified errors.
//! * [`fn@lower`] — run the pass pipeline, producing a [`Lowered`]
//!   application.
//! * [`ManifestModel`] — a [`WorkloadModel`](mrts_workload::WorkloadModel)
//!   whose execution frequencies come from the manifest's declarative
//!   rate expressions.
//! * [`fn@model`] — resolve a builtin app name (`h264`, `fft`, `cipher`,
//!   `toy`, `cv`, `cryptomix`) or a manifest file path to a boxed model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
pub mod events;
pub mod lower;
pub mod manifest;
pub mod model;
pub mod passes;
pub mod rate;

pub use builtin::{model, BUILTIN_APPS};
pub use lower::{lower, Lowered};
pub use manifest::{BlockManifest, DataPathManifest, KernelManifest, Manifest, NodeManifest};
pub use model::ManifestModel;
pub use rate::{Feature, RateExpr, RateRule, Round};

/// An error from any stage of the ingestion pipeline.
///
/// Every variant carries enough context to print a field-qualified message
/// (e.g. `kernels[2].data_paths[0].nodes[7]: unknown op 'foo'`), which is
/// what `mrts-cli ingest --check` relays verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The manifest text is not valid JSON.
    Syntax(String),
    /// A pass rejected the manifest; `path` is the offending field.
    Pass {
        /// Dotted/indexed path of the offending field.
        path: String,
        /// What is wrong with it.
        msg: String,
    },
    /// A manifest file or event spine could not be read.
    Io(String),
}

impl IngestError {
    /// Builds a pass error at `path`.
    #[must_use]
    pub fn at(path: impl Into<String>, msg: impl Into<String>) -> Self {
        IngestError::Pass {
            path: path.into(),
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Syntax(e) => write!(f, "manifest is not valid JSON: {e}"),
            IngestError::Pass { path, msg } => write!(f, "{path}: {msg}"),
            IngestError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IngestError {}
